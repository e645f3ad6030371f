/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload explore|validate|serve --seed N --seconds S
 *             --trace 0|1 [--out-dir DIR] [--source-id ID]
 *
 * Prints a provenance record line, then the result object as the last
 * line of standard output (see README.md for the metrics).  With
 * --trace 1 the run reports the per-layer metrics instead of the
 * end-to-end ones and writes a Chrome trace under --out-dir.
 */
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"

namespace {

void
usage(std::ostream &os)
{
    os << "usage: perfbench --workload explore|validate|serve --seed N "
          "--seconds S --trace 0|1 [--out-dir DIR] [--source-id ID]\n";
}

std::string
cpuModel()
{
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

bool
parseUnsigned(const std::string &text, unsigned long long *out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    try {
        *out = std::stoull(text);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    std::string source_id = "unknown";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        }
        if (i + 1 >= argc) {
            usage(std::cerr);
            return 2;
        }
        const std::string val = argv[++i];
        unsigned long long n = 0;
        if (arg == "--workload") {
            opts.workload = val;
            have_workload = true;
        } else if (arg == "--seed" && parseUnsigned(val, &n)) {
            opts.seed = n;
        } else if (arg == "--seconds" && parseUnsigned(val, &n) && n > 0) {
            opts.seconds = static_cast<double>(n);
        } else if (arg == "--trace" && (val == "0" || val == "1")) {
            opts.trace = val == "1";
        } else if (arg == "--out-dir") {
            opts.outDir = val;
        } else if (arg == "--source-id") {
            source_id = val;
        } else {
            std::cerr << "perfbench: bad option " << arg << " " << val
                      << "\n";
            usage(std::cerr);
            return 2;
        }
    }
    void (*run)(const Options &, Report &, SpanRecorder &) = nullptr;
    if (opts.workload == "explore")
        run = runExplore;
    else if (opts.workload == "validate")
        run = runValidate;
    else if (opts.workload == "serve")
        run = runServe;
    if (!have_workload || !run) {
        std::cerr << "perfbench: unknown workload '" << opts.workload
                  << "'\n";
        usage(std::cerr);
        return 2;
    }

    Report report;
    report.note("logical_cores", std::to_string(logicalCores()));
    report.note("pool_threads", std::to_string(poolThreads()));
    report.note("cpu_model", cpuModel());
    report.note("compiler", PERFBENCH_COMPILER);
    report.note("build_type", PERFBENCH_BUILD_TYPE);
    report.note("source_id", source_id);

    SpanRecorder spans(opts.trace);
    try {
        run(opts, report, spans);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }

    if (opts.trace) {
        std::error_code ec;
        std::filesystem::create_directories(opts.outDir, ec);
        const std::string path = opts.outDir + "/trace_" + opts.workload +
                                 "_" + std::to_string(opts.seed) +
                                 ".json";
        if (report.check(spans.writeChromeTrace(path),
                         "writing the Chrome trace " + path)) {
            report.note("chrome_trace", path);
        }
    }
    report.emit(opts);
    return 0;
}
