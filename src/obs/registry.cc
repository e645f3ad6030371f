#include "obs/registry.hh"

#include <cctype>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace mech::obs {

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry &
MetricsRegistry::entryFor(const std::string &name,
                          const std::string &help, MetricKind kind)
{
    // Caller holds mtx.
    MECH_ASSERT(!name.empty(), "metric name must not be empty");
    auto it = index.find(name);
    if (it != index.end()) {
        Entry &entry = entries[it->second];
        MECH_ASSERT(entry.kind == kind, "metric '", name,
                    "' registered twice with different kinds");
        // A reader that looked the instrument up before its owner
        // registered it (help "") must not strip the # HELP line.
        if (entry.help.empty())
            entry.help = help;
        return entry;
    }
    Entry entry;
    entry.name = name;
    entry.help = help;
    entry.kind = kind;
    switch (kind) {
      case MetricKind::CounterKind:
        counters.emplace_back();
        entry.counter = &counters.back();
        break;
      case MetricKind::GaugeKind:
        gauges.emplace_back();
        entry.gauge = &gauges.back();
        break;
      case MetricKind::HistogramKind:
        hists.emplace_back();
        entry.hist = &hists.back();
        break;
    }
    index.emplace(name, entries.size());
    entries.push_back(entry);
    return entries.back();
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    std::lock_guard<std::mutex> lock(mtx);
    return *entryFor(name, help, MetricKind::CounterKind).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mtx);
    return *entryFor(name, help, MetricKind::GaugeKind).gauge;
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help)
{
    std::lock_guard<std::mutex> lock(mtx);
    return *entryFor(name, help, MetricKind::HistogramKind).hist;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return entries.size();
}

std::vector<MetricsRegistry::Sample>
MetricsRegistry::collect() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::vector<Sample> out;
    out.reserve(entries.size());
    for (const Entry &entry : entries) {
        Sample s;
        s.name = entry.name;
        s.help = entry.help;
        s.kind = entry.kind;
        switch (entry.kind) {
          case MetricKind::CounterKind:
            s.value = static_cast<std::int64_t>(entry.counter->value());
            break;
          case MetricKind::GaugeKind:
            s.value = entry.gauge->value();
            break;
          case MetricKind::HistogramKind:
            s.hist = entry.hist->snapshot();
            break;
        }
        out.push_back(std::move(s));
    }
    return out;
}

std::string
prometheusName(const std::string &dotted)
{
    std::string out = "mech_";
    for (char c : dotted) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

namespace {

/** Escape a HELP text per the exposition format rules. */
std::string
escapeHelp(const std::string &help)
{
    std::string out;
    for (char c : help) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

} // namespace

void
MetricsRegistry::renderPrometheus(std::ostream &os) const
{
    const std::vector<Sample> samples = collect();
    for (const Sample &s : samples) {
        const std::string name = prometheusName(s.name);
        if (!s.help.empty())
            os << "# HELP " << name << " " << escapeHelp(s.help)
               << "\n";
        switch (s.kind) {
          case MetricKind::CounterKind:
            os << "# TYPE " << name << " counter\n";
            os << name << " " << s.value << "\n";
            break;
          case MetricKind::GaugeKind:
            os << "# TYPE " << name << " gauge\n";
            os << name << " " << s.value << "\n";
            break;
          case MetricKind::HistogramKind: {
            os << "# TYPE " << name << " histogram\n";
            std::uint64_t cumulative = 0;
            const std::uint64_t top = s.hist.buckets.maxKey();
            for (std::uint64_t k = 0; k <= top; ++k) {
                cumulative += s.hist.buckets.at(k);
                os << name << "_bucket{le=\""
                   << LatencyHistogram::bucketUpperBound(k) << "\"} "
                   << cumulative << "\n";
            }
            os << name << "_bucket{le=\"+Inf\"} " << s.hist.count()
               << "\n";
            os << name << "_sum " << s.hist.sum << "\n";
            os << name << "_count " << s.hist.count() << "\n";
            break;
          }
        }
    }
}

namespace {

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':';
    };
    auto tail = [&](char c) {
        return head(c) || std::isdigit(static_cast<unsigned char>(c));
    };
    if (!head(name[0]))
        return false;
    for (std::size_t i = 1; i < name.size(); ++i) {
        if (!tail(name[i]))
            return false;
    }
    return true;
}

bool
validSampleValue(const std::string &value)
{
    if (value == "+Inf" || value == "-Inf" || value == "NaN")
        return true;
    if (value.empty())
        return false;
    char *end = nullptr;
    std::strtod(value.c_str(), &end);
    return end == value.c_str() + value.size();
}

struct BucketSeries
{
    std::vector<std::pair<std::string, double>> buckets; // (le, count)
    double count = 0;
    bool sawCount = false;
    bool sawInf = false;
};

} // namespace

bool
validateExposition(const std::string &text, std::string *error)
{
    auto fail = [&](std::size_t lineno, const std::string &why) {
        if (error)
            *error = "line " + std::to_string(lineno) + ": " + why;
        return false;
    };

    std::map<std::string, std::string> types; // name -> TYPE keyword
    std::map<std::string, BucketSeries> series;

    std::istringstream is(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream ls(line);
            std::string hash, keyword, name;
            ls >> hash >> keyword >> name;
            if (keyword != "HELP" && keyword != "TYPE")
                continue; // arbitrary comment: ignored by parsers
            if (!validMetricName(name))
                return fail(lineno, "bad metric name '" + name +
                                        "' in " + keyword);
            if (keyword == "TYPE") {
                std::string type;
                ls >> type;
                if (type != "counter" && type != "gauge" &&
                    type != "histogram" && type != "summary" &&
                    type != "untyped") {
                    return fail(lineno, "unknown TYPE '" + type + "'");
                }
                if (types.count(name))
                    return fail(lineno,
                                "duplicate TYPE for '" + name + "'");
                types[name] = type;
            }
            continue;
        }

        // Sample line: name[{labels}] value [timestamp]
        std::size_t pos = 0;
        while (pos < line.size() &&
               line[pos] != '{' && line[pos] != ' ')
            ++pos;
        const std::string name = line.substr(0, pos);
        if (!validMetricName(name))
            return fail(lineno, "bad sample name '" + name + "'");
        std::string le;
        if (pos < line.size() && line[pos] == '{') {
            const std::size_t close = line.find('}', pos);
            if (close == std::string::npos)
                return fail(lineno, "unterminated label set");
            std::string labels = line.substr(pos + 1, close - pos - 1);
            // Labels: key="value" pairs, comma-separated.
            std::size_t lp = 0;
            while (lp < labels.size()) {
                const std::size_t eq = labels.find('=', lp);
                if (eq == std::string::npos ||
                    eq + 1 >= labels.size() || labels[eq + 1] != '"')
                    return fail(lineno, "malformed label pair");
                const std::string key = labels.substr(lp, eq - lp);
                if (!validMetricName(key))
                    return fail(lineno,
                                "bad label name '" + key + "'");
                std::size_t vq = eq + 2;
                while (vq < labels.size() && labels[vq] != '"') {
                    if (labels[vq] == '\\')
                        ++vq;
                    ++vq;
                }
                if (vq >= labels.size())
                    return fail(lineno, "unterminated label value");
                if (key == "le")
                    le = labels.substr(eq + 2, vq - eq - 2);
                lp = vq + 1;
                if (lp < labels.size()) {
                    if (labels[lp] != ',')
                        return fail(lineno,
                                    "expected ',' between labels");
                    ++lp;
                }
            }
            pos = close + 1;
        }
        if (pos >= line.size() || line[pos] != ' ')
            return fail(lineno, "expected space before sample value");
        while (pos < line.size() && line[pos] == ' ')
            ++pos;
        std::istringstream vs(line.substr(pos));
        std::string value, timestamp, extra;
        vs >> value >> timestamp >> extra;
        if (!validSampleValue(value))
            return fail(lineno, "bad sample value '" + value + "'");
        if (!timestamp.empty() && !validSampleValue(timestamp))
            return fail(lineno, "bad timestamp '" + timestamp + "'");
        if (!extra.empty())
            return fail(lineno, "trailing garbage after sample");

        // Histogram bookkeeping for the cross-line checks below.
        auto strip = [&](const std::string &suffix) {
            if (name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) == 0) {
                return name.substr(0, name.size() - suffix.size());
            }
            return std::string();
        };
        if (std::string base = strip("_bucket"); !base.empty()) {
            if (types.count(base) && types[base] == "histogram") {
                if (le.empty())
                    return fail(lineno,
                                "histogram bucket without le label");
                series[base].buckets.emplace_back(
                    le, std::strtod(value.c_str(), nullptr));
                if (le == "+Inf")
                    series[base].sawInf = true;
            }
        } else if (std::string base2 = strip("_count");
                   !base2.empty()) {
            if (types.count(base2) && types[base2] == "histogram") {
                series[base2].count =
                    std::strtod(value.c_str(), nullptr);
                series[base2].sawCount = true;
            }
        }
    }

    for (const auto &[name, s] : series) {
        if (!s.sawInf)
            return fail(0, "histogram '" + name +
                               "' missing +Inf bucket");
        for (std::size_t i = 1; i < s.buckets.size(); ++i) {
            if (s.buckets[i].second < s.buckets[i - 1].second)
                return fail(0, "histogram '" + name +
                                   "' buckets not cumulative");
        }
        if (s.sawCount &&
            s.buckets.back().second != s.count) {
            return fail(0, "histogram '" + name +
                               "' +Inf bucket disagrees with _count");
        }
    }
    return true;
}

} // namespace mech::obs
