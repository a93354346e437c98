/**
 * @file
 * Shared pieces of the invertq_e2e benchmark: run settings, the
 * metric table every workload fills, sample statistics, the
 * in-memory span recorder of traced runs, and the noise-layer
 * replay probes.
 *
 * The benchmark drives the program only through its public API and
 * adds no instrumentation to it: every span is recorded here, around
 * the calls into each layer (transpile, mitigation policy, backend
 * fan-out), and the noise layer is attributed by replaying the
 * distinct fan-out circuits after the timed phase.
 */

#ifndef INVERTQ_E2E_E2E_HH
#define INVERTQ_E2E_E2E_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/benchmarks.hh"
#include "noise/noise_model.hh"
#include "qsim/circuit.hh"
#include "qsim/counts.hh"
#include "telemetry/json.hh"

namespace e2e
{

namespace telemetry = qem::telemetry;

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Settings of one benchmark process. */
struct RunConfig
{
    std::string workload;
    /** Drives every seed: sessions, service, cell order, arrivals. */
    std::uint64_t seed = 2019;
    /** Length of the timed phase. */
    double seconds = 20.0;
    /** Traced run: report the per-layer metrics instead. */
    bool trace = false;
};

/** Metrics by name, each with its unit, in insertion order. */
class MetricTable
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    /** Insert or overwrite @p name. */
    void set(const std::string& name, double value,
             const std::string& unit);

    /** The entry called @p name, or nullptr. */
    const Entry* find(const std::string& name) const;

    const std::vector<Entry>& entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** Everything one workload process measured and checked. */
struct Report
{
    MetricTable metrics;
    /** Results (or jobs) attempted and failed in the timed phase. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed correctness check. */
    std::vector<std::string> failures;
    /** The workload's fixed constants, for the host stamp. */
    telemetry::JsonValue constants = telemetry::JsonValue::object();
    /** Traced closed loops: the recorded spans
     *  (TRACE_e2e_<workload>.json). */
    telemetry::JsonValue trace;
    void fail(const std::string& what) { failures.push_back(what); }
};

/** @name Sample statistics. */
/// @{
/** Nearest-rank @p q-quantile (0 < q <= 1); 0 for no samples. */
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

double mean(const std::vector<double>& values);

/** Process peak resident set size in MB, less the file-backed pages
 *  (program text and libraries) resident now. */
double peakRssMb();

/**
 * CPU time of all of this process's threads, seconds. A thread that
 * waits for a CPU gathers none, and a kernel with paravirtual time
 * accounting leaves out the time the hypervisor stole from it.
 */
double processCpuSeconds();
/// @}

/**
 * Samples (times in seconds, or other positive values) in fixed
 * memory, so that a run's peak_rss_mb does not grow with the number
 * of samples it took: log-spaced buckets 1% wide from @p min to
 * @p max (samples outside go to the end buckets), each holding its
 * sample count and sum.
 */
class Histogram
{
  public:
    explicit Histogram(double min = 1e-7, double max = 1e3);

    /** Add a sample. */
    void add(double value);

    /** The nearest-rank @p q-quantile (0 < q <= 1), as the mean of the
     *  samples in its bucket, so within 1% of it; 0 when empty. */
    double percentile(double q) const;

    std::uint64_t count() const { return count_; }

  private:
    double min_;
    std::vector<std::uint64_t> counts_;
    std::vector<double> sums_;
    std::uint64_t count_ = 0;
};

/**
 * Latencies whose p50 and p99 a burst of contention cannot move far.
 * The samples are cut into blocks of consecutive ones, each at least
 * kBlockSamples long so that its p99 has ten samples beyond it, and a
 * quantile is the median of the blocks' quantiles: a burst that slows
 * the results of a few blocks leaves the median block alone, where a
 * pooled p99 moves as soon as a burst slows 1% of a run's results.
 * Beside a bursty CPU hog, ten runs of q5-mix-t4 spread its pooled p99
 * by 30% of the median and the median of block p99s by 19%. All
 * samples are also kept pooled, in fixed memory.
 */
class BlockLatencies
{
  public:
    static constexpr std::size_t kBlockSamples = 1000;

    /** Add a sample to the open block. */
    void add(double value);

    /** Close the open block if it holds kBlockSamples samples or
     *  more. Call it where a block may end, e.g. between passes. */
    void cut();

    /** The median over the closed blocks of their nearest-rank @p q
     *  quantile, q being 0.5 or 0.99; of the open block's when no
     *  block has closed (a run too short for one); 0 when empty. */
    double percentile(double q) const;

    /** The nearest-rank @p q quantile of all samples, within 1%. */
    double pooledPercentile(double q) const
    {
        return pooled_.percentile(q);
    }

    std::uint64_t count() const { return pooled_.count(); }

    /** Closed blocks (1 when none closed but samples were added). */
    std::size_t blocks() const;

    /** Samples in the smallest block percentile() reads. */
    std::size_t smallestBlock() const;

  private:
    static std::size_t quantileIndex(double q);

    Histogram pooled_;
    std::vector<double> open_;
    /** Per closed block, its p50 and p99. */
    std::vector<double> quantiles_[2];
    std::size_t smallest_ = 0;
};

/**
 * Set latency_p50_ms, latency_p99_ms (block medians), the pooled
 * latency_p99_ms.pooled and the sample and block counts from
 * @p latencies, with @p suffix appended to each name.
 */
void setLatencyMetrics(const BlockLatencies& latencies, MetricTable& out,
                       const std::string& suffix = "");

/**
 * When the hypervisor ran other guests while this machine's CPUs
 * wanted to run: the "steal" ticks of /proc/stat, sampled over a timed
 * phase. On a shared virtual machine steal arrives in bursts of tens
 * of milliseconds and stalls whatever runs then, in proportion to the
 * neighbours' load; it moved closed-loop throughput by 30% between
 * runs a minute apart (0.4% vs 5% of CPU time stolen), and a burst
 * lands on a few results whole, so no scaling by the host's speed
 * removes it. Headline timings are kept only from segments without
 * steal, and every timing is also reported over all samples.
 */
class StealLog
{
  public:
    /** Start the log, and its clock: times are seconds from now. */
    StealLog();

    /** Record the steal count if the last sample is at least
     *  kSegmentSeconds old, or regardless when @p force is set;
     *  returns whether it did, closing a segment. */
    bool sample(bool force = false);

    /** Was no CPU time stolen in the last closed segment? */
    bool lastSegmentClean() const;

    /** Length of the last closed segment, seconds. */
    double lastSegmentSeconds() const;

    /** When the log started. */
    Clock::time_point origin() const { return start_; }

    /** Seconds since the log started. */
    double now() const { return seconds(start_, Clock::now()); }

    /** Was no CPU time stolen over the sampled segments that cover
     *  [@p from, @p to] (seconds since the start)? An interval past
     *  the last sample is not clean. */
    bool clean(double from, double to) const;

    /** Share of all CPU time stolen since the start, as of the last
     *  sample. */
    double stealShare() const;

    /** Seconds covered by clean segments. */
    double cleanSeconds() const;

    /** Drop every sample but the last, so that the log's memory does
     *  not grow over a phase that needs only its last segment; clean()
     *  and cleanSeconds() then see only the samples kept. */
    void forget();

    /** The kernel counts steal in 10 ms ticks; shorter segments would
     *  not place it more finely. */
    static constexpr double kSegmentSeconds = 0.01;

  private:
    struct Point
    {
        double t = 0.0;
        std::uint64_t total = 0;
        std::uint64_t steal = 0;
    };

    void push();

    Clock::time_point start_;
    Point first_;
    std::vector<Point> points_;
};

/**
 * Reference seconds: the time of the reference work (reference.cc) on
 * the host of README.md when it ran fastest. A time multiplied by the
 * host's speed is a time in reference seconds.
 */
inline constexpr double kReferenceSeconds = 1.3e-4;

/**
 * Run the reference work once on the calling thread; returns the
 * host's speed, kReferenceSeconds over the time it took (1 on the
 * reference host at its fastest, below 1 when it runs slower).
 *
 * The host is a virtual machine whose physical cores other tenants
 * share, and its speed drifts by tens of percent in spells of seconds
 * to minutes that no steal count shows. Over 1 s chunks of the serial
 * loop its throughput and this speed correlated at 0.98; timings
 * scaled by the speed read beside them spread a third as much.
 */
double hostSpeed();

/** Timed set-ups. Each is scaled by the host's speed read just before
 *  and after it; setup_s is the median of those no CPU time was stolen
 *  from (of all of them when every one lost some). */
class SetupTimer
{
  public:
    /** Call @p set_up, timing it; returns what it returns. */
    template <typename F>
    auto time(F&& set_up)
    {
        const double speedBefore = hostSpeed();
        steal_.sample(true);
        const double began = steal_.now();
        auto made = set_up();
        const double ended = steal_.now();
        steal_.sample(true);
        const double speed = std::max(speedBefore, hostSpeed());
        (steal_.clean(began, ended) ? clean_ : stolen_)
            .push_back((ended - began) * speed);
        return made;
    }

    std::size_t count() const { return clean_.size() + stolen_.size(); }

    double median() const;

  private:
    StealLog steal_;
    std::vector<double> clean_;
    std::vector<double> stolen_;
};

/**
 * Spans of a traced run, kept in memory until exit. Each span has a
 * parent (0 = root), so a layer's self time is its duration minus
 * the time its children cover.
 */
class Tracer
{
  public:
    enum class Kind : std::uint8_t
    {
        Result,
        Transpile,
        Policy,
        Fanout,
    };

    struct Span
    {
        std::uint32_t parent = 0;
        Kind kind = Kind::Result;
        /** Workload-defined tag (the cell index of a result). */
        std::uint32_t tag = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;

        double seconds() const { return (endNs - startNs) * 1e-9; }
    };

    Tracer();

    /** Open a span; returns its id (ids start at 1). */
    std::uint32_t begin(Kind kind, std::uint32_t parent,
                        std::uint32_t tag = 0);

    /** Close span @p id. */
    void end(std::uint32_t id);

    /** Span @p id (1-based). */
    const Span& span(std::uint32_t id) const { return spans_[id - 1]; }

    const std::vector<Span>& spans() const { return spans_; }

    /** The spans as JSON, times in microseconds since the first. */
    telemetry::JsonValue toJson(
        const std::vector<std::string>& tag_names) const;

  private:
    std::int64_t now() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Display name of a span kind ("result", "transpile", ...). */
const char* spanKindName(Tracer::Kind kind);

/** One distinct circuit the workload sent to a backend. */
struct FanoutCircuit
{
    qem::Circuit circuit;
    /** Noise model of the machine it ran on. */
    const qem::NoiseModel* model = nullptr;
    /** Backend runs of it, and their total shots. */
    std::uint64_t runs = 0;
    std::uint64_t shots = 0;

    FanoutCircuit() : circuit(1) {}
};

/** Single-thread replay cost of one FanoutCircuit. */
struct ReplayCost
{
    /** TrajectorySimulator::compile (lowering) seconds. */
    double lowerSeconds = 0.0;
    /** CompiledRun::run seconds per shot, at the mean run size. */
    double execSecondsPerShot = 0.0;
    /** NoiseProgram::evolve seconds per trajectory. */
    double evolveSecondsPerTraj = 0.0;
    /** Does the lowered program draw a fresh trajectory per
     *  shotsPerTrajectory shots (else one serves every shot)? */
    bool stochastic = true;
    std::size_t shotsPerTrajectory = 16;

    double trajectories(std::uint64_t shots) const;
    double execSeconds(std::uint64_t shots) const
    {
        return execSecondsPerShot * static_cast<double>(shots);
    }
    /** The evolve part of execSeconds(@p shots). */
    double evolveSeconds(std::uint64_t shots) const;
};

/**
 * Replay every circuit once on the calling thread and fill the
 * noise.* rates (lowering time, ns per shot, ns per trajectory,
 * trajectories per shot), weighting each circuit by the runs and
 * shots the workload spent on it. Returns one cost per circuit.
 */
std::vector<ReplayCost> probeNoise(
    const std::vector<FanoutCircuit>& circuits, MetricTable& out);

/**
 * Single-thread work of a set of backend runs, split by noise-layer
 * step. Computed from replay costs, not measured inside the runs.
 */
struct NoiseWork
{
    double lower = 0.0;
    double evolve = 0.0;
    double sampleReadout = 0.0;

    /** One run of @p shots; @p lowered when it compiled its circuit. */
    void add(const ReplayCost& cost, std::uint64_t shots, bool lowered);

    double exec() const { return evolve + sampleReadout; }
};

/**
 * The benchmark circuits the workloads draw from, by name: bv-4A,
 * ghz-4 and qaoa-4A (5-qubit machines), bv-7 and qaoa-7 (melbourne).
 * QAOA angles are optimized here, so this is set-up work.
 */
qem::NisqBenchmark makeBenchmark(const std::string& name);

/** @name Workloads. */
/// @{
bool isClosedLoop(const std::string& workload);
Report runClosedLoop(const RunConfig& config);
Report runOpenLoop(const RunConfig& config);
/// @}

/** nproc, CPU, ISA, kernels, build and source revision. */
telemetry::JsonValue hostStamp();

/** CPUs this process may run on (what `nproc` prints). */
unsigned availableCpus();

/** FNV-1a digest of a histogram, folded into @p h. */
std::uint64_t digestCounts(std::uint64_t h, const qem::Counts& counts);

/** Same histogram: width, total and every (outcome, count) pair. */
bool sameCounts(const qem::Counts& a, const qem::Counts& b);

} // namespace e2e

#endif // INVERTQ_E2E_E2E_HH
