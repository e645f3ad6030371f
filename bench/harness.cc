#include "harness.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/json.hh"

namespace mech::bench {

namespace {

// ---- provenance -----------------------------------------------------------

std::string
compilerId()
{
    std::ostringstream os;
#if defined(__clang__)
    os << "clang " << __clang_major__ << "." << __clang_minor__ << "."
       << __clang_patchlevel__;
#elif defined(__GNUC__)
    os << "gcc " << __GNUC__ << "." << __GNUC_MINOR__ << "."
       << __GNUC_PATCHLEVEL__;
#else
    os << "unknown";
#endif
    return os.str();
}

std::string
buildGitSha()
{
    if (const char *env = std::getenv("MECH_GIT_SHA"))
        return env;
#ifdef MECHSIM_GIT_SHA
    return MECHSIM_GIT_SHA;
#else
    return "unknown";
#endif
}

std::string
cpuModelName()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos &&
                colon + 2 <= line.size()) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

std::string
buildTypeId()
{
#ifdef MECHSIM_BUILD_TYPE
    return MECHSIM_BUILD_TYPE;
#else
    return "unknown";
#endif
}

// ---- JSON parsing helpers ------------------------------------------------
//
// Reading uses the shared mech::json reader (common/json.hh); the
// artifact schema tolerates unknown keys so future schema minors stay
// readable, and structural errors surface as BenchIoError.

std::string
stringField(const json::Value &obj, const std::string &key)
{
    const json::Value *v = obj.get(key);
    if (!v || !v->isString())
        throw BenchIoError("missing or non-string field '" + key + "'");
    return v->string;
}

double
numberField(const json::Value &obj, const std::string &key)
{
    const json::Value *v = obj.get(key);
    if (!v || !v->isNumber())
        throw BenchIoError("missing or non-number field '" + key + "'");
    return v->number;
}

} // namespace

bool
BenchRecord::higherIsBetter() const
{
    return (unit.size() >= 2 &&
            unit.compare(unit.size() - 2, 2, "/s") == 0) ||
           unit == "speedup";
}

const BenchRecord *
BenchReport::find(const std::string &key) const
{
    for (const auto &r : results) {
        if (r.key() == key)
            return &r;
    }
    return nullptr;
}

BenchReport
makeReport(std::string generator)
{
    BenchReport report;
    report.generator = std::move(generator);
    report.gitSha = buildGitSha();
    report.compiler = compilerId();
    report.buildType = buildTypeId();
    return report;
}

void
recordHost(BenchReport &report)
{
    report.logicalCores = std::thread::hardware_concurrency();
    report.cpuModel = cpuModelName();
}

void
writeReportJson(const BenchReport &report, std::ostream &os)
{
    os << "{\n";
    os << "  \"schema_version\": " << kBenchSchemaVersion << ",\n";
    os << "  \"generator\": ";
    json::writeString(os, report.generator);
    os << ",\n  \"git_sha\": ";
    json::writeString(os, report.gitSha);
    os << ",\n  \"compiler\": ";
    json::writeString(os, report.compiler);
    os << ",\n  \"build_type\": ";
    json::writeString(os, report.buildType);
    if (report.logicalCores > 0) {
        os << ",\n  \"logical_cores\": " << report.logicalCores;
        os << ",\n  \"cpu_model\": ";
        json::writeString(os, report.cpuModel);
    }
    os << ",\n  \"results\": [";
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const BenchRecord &r = report.results[i];
        os << (i ? "," : "") << "\n    { \"suite\": ";
        json::writeString(os, r.suite);
        os << ", \"benchmark\": ";
        json::writeString(os, r.benchmark);
        os << ", \"metric\": ";
        json::writeString(os, r.metric);
        os << ", \"value\": ";
        json::writeNumber(os, r.value);
        os << ", \"unit\": ";
        json::writeString(os, r.unit);
        os << " }";
    }
    os << (report.results.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

void
saveReport(const BenchReport &report, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throw BenchIoError("cannot open '" + path + "' for writing");
    writeReportJson(report, os);
    os.flush();
    if (!os)
        throw BenchIoError("write to '" + path + "' failed");
}

BenchReport
parseReportJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string error;
    std::optional<json::Value> root = json::parse(buf.str(), &error);
    if (!root)
        throw BenchIoError("bench JSON, " + error);
    if (!root->isObject())
        throw BenchIoError("artifact root must be a JSON object");

    const json::Value *ver = root->get("schema_version");
    if (!ver || !ver->isNumber())
        throw BenchIoError("missing schema_version");
    int version = static_cast<int>(ver->number);
    if (version < 1 || version > kBenchSchemaVersion) {
        throw BenchIoError("unsupported schema_version " +
                           std::to_string(version) +
                           " (reader supports up to " +
                           std::to_string(kBenchSchemaVersion) + ")");
    }

    BenchReport report;
    report.schemaVersion = version;
    report.generator = stringField(*root, "generator");
    report.gitSha = stringField(*root, "git_sha");
    report.compiler = stringField(*root, "compiler");
    report.buildType = stringField(*root, "build_type");
    if (root->get("logical_cores")) {
        report.logicalCores =
            static_cast<unsigned>(numberField(*root, "logical_cores"));
        report.cpuModel = stringField(*root, "cpu_model");
    }

    const json::Value *results = root->get("results");
    if (!results || !results->isArray())
        throw BenchIoError("missing results array");
    for (const json::Value &entry : results->array) {
        if (!entry.isObject())
            throw BenchIoError("results entries must be objects");
        BenchRecord r;
        r.suite = stringField(entry, "suite");
        r.benchmark = stringField(entry, "benchmark");
        r.metric = stringField(entry, "metric");
        r.value = numberField(entry, "value");
        r.unit = stringField(entry, "unit");
        report.results.push_back(std::move(r));
    }
    return report;
}

BenchReport
loadReport(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw BenchIoError("cannot open '" + path + "'");
    return parseReportJson(is);
}

BaselineComparison
compareToBaseline(const BenchReport &current,
                  const BenchReport &baseline, double max_slowdown)
{
    BaselineComparison cmp;
    for (const BenchRecord &cur : current.results) {
        const BenchRecord *base = baseline.find(cur.key());
        if (!base) {
            cmp.missingInBaseline.push_back(cur);
            continue;
        }
        BaselineComparison::Entry entry;
        entry.current = cur;
        entry.baseline = *base;
        if (cur.unit != base->unit) {
            // A unit change makes the ratio meaningless; surface it
            // as a regression so the baseline gets refreshed.
            entry.slowdown = 0.0;
            entry.regressed = true;
        } else if (cur.value <= 0.0 || base->value <= 0.0) {
            // Degenerate measurements never gate.
            entry.slowdown = 1.0;
        } else if (cur.higherIsBetter()) {
            entry.slowdown = base->value / cur.value;
            entry.regressed = entry.slowdown > max_slowdown;
        } else {
            entry.slowdown = cur.value / base->value;
            entry.regressed = entry.slowdown > max_slowdown;
        }
        cmp.compared.push_back(std::move(entry));
    }
    for (const BenchRecord &base : baseline.results) {
        if (!current.find(base.key()))
            cmp.missingInCurrent.push_back(base);
    }
    return cmp;
}

void
printComparison(const BaselineComparison &cmp, double max_slowdown,
                std::ostream &os)
{
    os << "baseline comparison (fail above " << max_slowdown
       << "x slowdown):\n";
    for (const auto &e : cmp.compared) {
        os << "  " << (e.regressed ? "REGRESSED " : "ok        ")
           << e.current.key() << "  " << e.current.value << " "
           << e.current.unit << "  vs  " << e.baseline.value << " "
           << e.baseline.unit << "  (slowdown "
           << (e.slowdown > 0.0 ? std::to_string(e.slowdown)
                                : std::string("unit-mismatch"))
           << ")\n";
    }
    for (const auto &r : cmp.missingInBaseline) {
        os << "  new       " << r.key()
           << "  (no baseline entry; not gated)\n";
    }
    for (const auto &r : cmp.missingInCurrent) {
        os << "  missing   " << r.key()
           << "  (baseline entry not produced by this run)\n";
    }
}

} // namespace mech::bench
