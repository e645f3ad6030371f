/**
 * @file
 * Profiling front end: run the expensive half of the paper's workflow
 * once and persist it.
 *
 * Generates and profiles the requested benchmarks (trace generation +
 * the single profiling pass that captures the L2 input stream and
 * trains both Table 2 predictors) and writes one `.mprof` artifact
 * per benchmark.  Later processes — calibrate --profile-dir, the
 * figure benches, any EvalBackend consumer — load those artifacts and
 * skip re-profiling entirely, with bit-identical model results.
 */

#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "mech/mech.hh"

int
main(int argc, char **argv)
{
    using namespace mech;
    using clock = std::chrono::steady_clock;

    std::string suite = "mibench";
    std::string bench_list;
    std::string out_dir = "profiles";
    InstCount n = 200000;
    unsigned nthreads = 0;
    bool no_trace = false;
    bool json = false;

    cli::ArgParser parser(
        "mech_profile",
        "profile benchmarks once and write .mprof artifacts");
    parser.add("suite", "name",
               "benchmark suite: mibench, spec or all", &suite);
    parser.add("bench", "names",
               "comma-separated benchmark names (overrides --suite)",
               &bench_list);
    parser.add("out", "dir", "output directory for .mprof artifacts",
               &out_dir);
    parser.add("instructions", "N", "dynamic instructions per trace",
               &n);
    parser.add("threads", "N",
               "worker threads for profiling (0 = all hardware "
               "threads)",
               &nthreads);
    parser.addFlag("no-trace",
                   "omit the dynamic trace (model-only artifacts, "
                   "~40x smaller; 'sim' backend unavailable)",
                   &no_trace);
    parser.addFlag("json", "also write a <bench>.json debug summary",
                   &json);
    parser.parse(argc, argv);
    nthreads = ThreadPool::sanitizeWorkerCount(
        static_cast<long long>(nthreads));

    // Resolve the benchmark list.
    std::vector<BenchmarkProfile> benches;
    if (!bench_list.empty()) {
        for (const std::string &name : cli::splitCsv(bench_list)) {
            if (name.empty())
                fatal("empty benchmark name in --bench list");
            benches.push_back(profileByName(name));
        }
    } else if (suite == "mibench") {
        benches = mibenchSuite();
    } else if (suite == "spec") {
        benches = specLikeSuite();
    } else if (suite == "all") {
        benches = mibenchSuite();
        const auto &spec = specLikeSuite();
        benches.insert(benches.end(), spec.begin(), spec.end());
    } else {
        fatal("unknown suite '", suite,
              "' (expected mibench, spec or all)");
    }

    std::filesystem::create_directories(out_dir);

    std::cout << "profiling " << benches.size() << " benchmark(s), "
              << n << " instructions each, " << nthreads
              << " thread(s) -> " << out_dir << "/\n\n";

    auto t0 = clock::now();

    // One parallelFor slot per benchmark: profile and persist.  Each
    // slot keeps its artifact size or its error, reported below in
    // benchmark order.
    ThreadPool pool(nthreads <= 1 ? 0 : nthreads);
    std::vector<std::uintmax_t> sizes(benches.size(), 0);
    std::vector<std::exception_ptr> errors(benches.size());
    pool.parallelFor(
        benches.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const BenchmarkProfile &bench = benches[i];
                const std::string path =
                    profileArtifactPath(out_dir, bench.name);
                try {
                    // One artifact snapshot serves both the binary
                    // file and the optional JSON summary.
                    ProfileArtifact artifact =
                        DseStudy(bench, n).artifact(!no_trace);
                    saveProfileArtifact(artifact, path);
                    if (json) {
                        std::ofstream os(
                            joinPath(out_dir, bench.name + ".json"));
                        if (!os)
                            fatal("cannot write JSON summary for ",
                                  bench.name);
                        writeProfileJson(artifact, os);
                    }
                    sizes[i] = std::filesystem::file_size(path);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            }
        });

    TextTable table({"benchmark", "artifact", "size (KiB)"});
    std::uintmax_t total_bytes = 0;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        try {
            if (errors[i])
                std::rethrow_exception(errors[i]);
        } catch (const std::exception &e) {
            // ProfileIoError from the codec, filesystem_error from
            // file_size — either way a user-environment problem.
            fatal("cannot write artifact for ", benches[i].name, ": ",
                  e.what());
        }
        total_bytes += sizes[i];
        table.addRow({benches[i].name,
                      benches[i].name + kProfileExtension,
                      TextTable::num(static_cast<double>(sizes[i]) / 1024.0,
                                     1)});
    }
    table.print(std::cout);

    double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    std::cout << "\nwrote " << benches.size() << " artifact(s), "
              << TextTable::num(static_cast<double>(total_bytes) /
                                    (1024.0 * 1024.0), 2)
              << " MiB total, in " << TextTable::num(secs, 2)
              << " s\nconsume with: calibrate --profile-dir " << out_dir
              << "  or  table2_design_space --profile-dir " << out_dir
              << "\n";
    return 0;
}
