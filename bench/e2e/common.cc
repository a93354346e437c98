#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sched.h>
#include <time.h>

#include "e2e.hh"
#include "kernels/graph.hh"
#include "qsim/bitstring.hh"
#include "qsim/kernels/kernels.hh"
#include "service/fingerprint.hh"

namespace e2e
{

void
MetricTable::set(const std::string& name, double value,
                 const std::string& unit)
{
    for (Entry& entry : entries_) {
        if (entry.name == name) {
            entry.value = value;
            entry.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

const MetricTable::Entry*
MetricTable::find(const std::string& name) const
{
    for (const Entry& entry : entries_) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

namespace
{

const double kLogHistogramGrowth = std::log(1.01);

} // namespace

Histogram::Histogram(double min, double max)
    : min_(min),
      counts_(static_cast<std::size_t>(
                  std::ceil(std::log(max / min) / kLogHistogramGrowth)),
              0),
      sums_(counts_.size(), 0.0)
{
}

void
Histogram::add(double value)
{
    const double index =
        value > min_ ? std::log(value / min_) / kLogHistogramGrowth : 0.0;
    const std::size_t b =
        std::min(static_cast<std::size_t>(index), counts_.size() - 1);
    ++counts_[b];
    sums_[b] += value;
    ++count_;
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        seen += counts_[b];
        if (seen >= rank)
            return sums_[b] / static_cast<double>(counts_[b]);
    }
    return 0.0;
}

namespace
{

constexpr double kBlockQuantiles[] = {0.5, 0.99};

} // namespace

std::size_t
BlockLatencies::quantileIndex(double q)
{
    for (std::size_t i = 0; i < std::size(kBlockQuantiles); ++i) {
        if (q == kBlockQuantiles[i])
            return i;
    }
    throw std::invalid_argument("BlockLatencies keeps only p50 and p99");
}

void
BlockLatencies::add(double value)
{
    if (open_.capacity() == 0)
        open_.reserve(2 * kBlockSamples);
    open_.push_back(value);
    pooled_.add(value);
}

void
BlockLatencies::cut()
{
    if (open_.size() < kBlockSamples)
        return;
    for (std::size_t i = 0; i < std::size(kBlockQuantiles); ++i)
        quantiles_[i].push_back(e2e::percentile(open_, kBlockQuantiles[i]));
    smallest_ = quantiles_[0].size() == 1 ? open_.size()
                                          : std::min(smallest_, open_.size());
    open_.clear();
}

double
BlockLatencies::percentile(double q) const
{
    const std::size_t i = quantileIndex(q);
    return quantiles_[i].empty() ? e2e::percentile(open_, q)
                                 : median(quantiles_[i]);
}

std::size_t
BlockLatencies::blocks() const
{
    if (!quantiles_[0].empty())
        return quantiles_[0].size();
    return open_.empty() ? 0 : 1;
}

std::size_t
BlockLatencies::smallestBlock() const
{
    return quantiles_[0].empty() ? open_.size() : smallest_;
}

void
setLatencyMetrics(const BlockLatencies& latencies, MetricTable& out,
                  const std::string& suffix)
{
    const double smallest = static_cast<double>(latencies.smallestBlock());
    out.set("latency_p50_ms" + suffix, latencies.percentile(0.5) * 1e3,
            "ms");
    out.set("latency_p99_ms" + suffix, latencies.percentile(0.99) * 1e3,
            "ms");
    out.set("latency_p99_ms.pooled" + suffix,
            latencies.pooledPercentile(0.99) * 1e3, "ms");
    out.set("latency.samples" + suffix,
            static_cast<double>(latencies.count()), "count");
    out.set("latency.blocks" + suffix,
            static_cast<double>(latencies.blocks()), "count");
    out.set("latency.p99_tail_samples" + suffix,
            smallest - std::ceil(0.99 * smallest), "count");
}

StealLog::StealLog() : start_(Clock::now())
{
    push();
    first_ = points_.front();
}

void
StealLog::forget()
{
    points_.erase(points_.begin(), points_.end() - 1);
}

void
StealLog::push()
{
    // The aggregate "cpu" line: user nice system idle iowait irq
    // softirq steal ...; steal is the eighth field.
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    Point point;
    point.t = now();
    for (int field = 0; field < 10; ++field) {
        std::uint64_t ticks = 0;
        if (!(in >> ticks))
            break;
        point.total += ticks;
        if (field == 7)
            point.steal = ticks;
    }
    if (label != "cpu")
        throw std::runtime_error("cannot read CPU times from /proc/stat");
    points_.push_back(point);
}

bool
StealLog::sample(bool force)
{
    if (!force && now() - points_.back().t < kSegmentSeconds)
        return false;
    push();
    return true;
}

bool
StealLog::lastSegmentClean() const
{
    return points_.size() >= 2 &&
           points_.back().steal == points_[points_.size() - 2].steal;
}

double
StealLog::lastSegmentSeconds() const
{
    return points_.size() >= 2
               ? points_.back().t - points_[points_.size() - 2].t
               : 0.0;
}

bool
StealLog::clean(double from, double to) const
{
    // The last sample at or before from (the first sample for an
    // interval reaching back before the start), and the first at or
    // after to.
    auto after = std::upper_bound(
        points_.begin() + 1, points_.end(), from,
        [](double t, const Point& p) { return t < p.t; });
    const Point& first = *std::prev(after);
    auto last = std::lower_bound(
        points_.begin(), points_.end(), to,
        [](const Point& p, double t) { return p.t < t; });
    return last != points_.end() && last->steal == first.steal;
}

double
StealLog::stealShare() const
{
    const Point& first = first_;
    const Point& last = points_.back();
    return last.total > first.total
               ? static_cast<double>(last.steal - first.steal) /
                     static_cast<double>(last.total - first.total)
               : 0.0;
}

double
SetupTimer::median() const
{
    if (!clean_.empty())
        return e2e::median(clean_);
    return e2e::median(stolen_);
}

double
StealLog::cleanSeconds() const
{
    double clean = 0.0;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].steal == points_[i - 1].steal)
            clean += points_[i].t - points_[i - 1].t;
    }
    return clean;
}

double
peakRssMb()
{
    // The resident size of mapped program text and libraries depends
    // on how the page cache holds those files (small pages after a
    // fresh link, whole large folios later): it moved one build's
    // peak between 4.5 and 14.5 MB. So file-backed pages, resident
    // now, come off the high-water mark.
    std::ifstream in("/proc/self/status");
    double hwm = 0.0, file = 0.0, shmem = 0.0;
    for (std::string line; std::getline(in, line);) {
        std::istringstream fields(line);
        std::string key;
        double kib = 0.0;
        fields >> key >> kib;
        if (key == "VmHWM:")
            hwm = kib;
        else if (key == "RssFile:")
            file = kib;
        else if (key == "RssShmem:")
            shmem = kib;
    }
    return (hwm - file - shmem) / 1024.0;
}

double
processCpuSeconds()
{
    timespec ts{};
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
        throw std::runtime_error("cannot read the process CPU clock");
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

Tracer::Tracer() : origin_(Clock::now())
{
    spans_.reserve(1 << 16);
}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::uint32_t
Tracer::begin(Kind kind, std::uint32_t parent, std::uint32_t tag)
{
    Span span;
    span.parent = parent;
    span.kind = kind;
    span.tag = tag;
    span.startNs = now();
    spans_.push_back(span);
    return static_cast<std::uint32_t>(spans_.size());
}

void
Tracer::end(std::uint32_t id)
{
    spans_[id - 1].endNs = now();
}

const char*
spanKindName(Tracer::Kind kind)
{
    switch (kind) {
    case Tracer::Kind::Result:
        return "result";
    case Tracer::Kind::Transpile:
        return "transpile";
    case Tracer::Kind::Policy:
        return "policy";
    case Tracer::Kind::Fanout:
        return "fanout";
    }
    return "unknown";
}

telemetry::JsonValue
Tracer::toJson(const std::vector<std::string>& tag_names) const
{
    using telemetry::JsonValue;
    JsonValue spans = JsonValue::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        JsonValue row = JsonValue::object();
        row["id"] = JsonValue(static_cast<std::uint64_t>(i + 1));
        row["parent"] = JsonValue(static_cast<std::uint64_t>(s.parent));
        row["name"] = JsonValue(spanKindName(s.kind));
        if (s.kind == Kind::Result && s.tag < tag_names.size())
            row["cell"] = JsonValue(tag_names[s.tag]);
        row["start_us"] = JsonValue(s.startNs * 1e-3);
        row["dur_us"] = JsonValue((s.endNs - s.startNs) * 1e-3);
        spans.push(std::move(row));
    }
    JsonValue doc = JsonValue::object();
    doc["schema"] = JsonValue("invertq.e2e.trace/v1");
    doc["spans"] = std::move(spans);
    return doc;
}

qem::NisqBenchmark
makeBenchmark(const std::string& name)
{
    using namespace qem;
    if (name == "bv-4A")
        return makeBvBenchmark(name, 4, "0111");
    if (name == "ghz-4")
        return makeGhzBenchmark(name, 4);
    if (name == "qaoa-4A")
        return makeQaoaBenchmark(name, cycleGraph(4), 1, "0101");
    if (name == "bv-7")
        return makeBvBenchmark(name, 7, "0111111");
    if (name == "qaoa-7")
        return makeQaoaBenchmark(
            name, completeBipartite(7, fromBitString("1010110")), 2,
            "1010110");
    throw std::invalid_argument("unknown benchmark circuit " + name);
}

unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

namespace
{

/** The value of the first "<key> : value" line of /proc/cpuinfo. */
std::string
cpuinfoField(const std::string& key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

} // namespace

telemetry::JsonValue
hostStamp()
{
    using telemetry::JsonValue;
    std::istringstream flags(cpuinfoField("flags"));
    bool avx2 = false;
    for (std::string flag; flags >> flag;)
        avx2 = avx2 || flag == "avx2";
    JsonValue host = JsonValue::object();
    host["nproc"] = JsonValue(availableCpus());
    host["cpu_model"] = JsonValue(cpuinfoField("model name"));
    host["avx2"] = JsonValue(avx2);
    host["kernels"] =
        JsonValue(qem::kernels::name(qem::kernels::active()));
    host["qem_simd"] = JsonValue(E2E_QEM_SIMD);
    host["build_type"] = JsonValue(E2E_BUILD_TYPE);
#if defined(__clang__)
    host["compiler"] = JsonValue("clang " __clang_version__);
#elif defined(__GNUC__)
    host["compiler"] = JsonValue("gcc " __VERSION__);
#else
    host["compiler"] = JsonValue("unknown");
#endif
    host["qem_sanitize"] = JsonValue(E2E_QEM_SANITIZE);
    // run.sh reads the revision when it runs the binary, so a build
    // tree reused across commits still stamps the one it measures.
    const char* sha = std::getenv("E2E_GIT_SHA");
    host["git_sha"] = JsonValue(sha != nullptr && *sha != '\0' ? sha
                                                               : "unknown");
    return host;
}

std::uint64_t
digestCounts(std::uint64_t h, const qem::Counts& counts)
{
    h = qem::svc::fnvWord(h, counts.numBits());
    for (const auto& [outcome, n] : counts.raw()) {
        h = qem::svc::fnvWord(h, outcome);
        h = qem::svc::fnvWord(h, n);
    }
    return h;
}

bool
sameCounts(const qem::Counts& a, const qem::Counts& b)
{
    return a.numBits() == b.numBits() && a.total() == b.total() &&
           a.raw() == b.raw();
}

} // namespace e2e
