/**
 * @file
 * The closed-loop workloads: q5-mix-t4, q5-mix-serial and
 * q14-fullnoise-t4.
 *
 * One client thread produces mitigated results back to back. A
 * result is MachineSession::prepare(logical) followed by
 * runPolicy(program, policy, shots), with a policy object built for
 * that result, over a fixed grid of (machine, circuit, policy) cells
 * visited in a seeded order each pass. Telemetry is off and no
 * service is involved, so the loops measure the synchronous
 * mitigated path alone.
 *
 * A traced run repeats the same passes after a fresh set-up, driving
 * MitigationPolicy::run directly against a TimedBackend wrapped
 * around session.backend() (with telemetry off this is exactly what
 * runPolicy does), so its results must match the untraced ones bit
 * for bit.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "e2e.hh"
#include "harness/experiment.hh"
#include "metrics/reliability.hh"
#include "runtime/parallel_backend.hh"
#include "service/artifact_cache.hh"
#include "service/fingerprint.hh"
#include "telemetry/telemetry.hh"
#include "verify/oracle.hh"
#include "verify/statistics.hh"

namespace e2e
{

namespace
{

using namespace qem;

enum class PolicyKind : std::uint8_t
{
    Baseline,
    Sim,
    Aim,
    Rebalance,
    Bfa,
};

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::Baseline, PolicyKind::Sim, PolicyKind::Aim,
    PolicyKind::Rebalance, PolicyKind::Bfa};

/** The policy's name() — also the suffix of per-policy metrics. */
const char*
policyName(PolicyKind kind)
{
    switch (kind) {
    case PolicyKind::Baseline:
        return "Baseline";
    case PolicyKind::Sim:
        return "SIM";
    case PolicyKind::Aim:
        return "AIM";
    case PolicyKind::Rebalance:
        return "Rebalance";
    case PolicyKind::Bfa:
        return "BFA";
    }
    return "unknown";
}

/** BFA twirl groups, as in the fig14 policy-family shootout. */
constexpr unsigned kBfaGroups = 8;
/**
 * A timed phase runs on past its budget, up to this multiple of it,
 * until this many results ran without steal: enough that their p99
 * has ten samples beyond it.
 */
constexpr std::size_t kMinCleanResults = 1000;
constexpr double kMaxBudgetStretch = 1.5;
/**
 * A result is contended when its wall time over the CPU time the
 * process spent on it exceeds its cell's kQuietRatioQuantile ratio so
 * far by more than kContendedSlack: one of its threads waited for a
 * CPU, or had its CPU stolen, for a good part of the result.
 */
constexpr double kQuietRatioQuantile = 0.25;
constexpr double kContendedSlack = 1.25;
/** The range of the wall over CPU ratios kept per cell. */
constexpr double kMinRatio = 0.05;
constexpr double kMaxRatio = 50.0;
/** Family-wise false-alarm rate of the per-cell oracle checks. */
constexpr double kOracleAlpha = 1e-6;
/**
 * Trajectory shots come in correlated batches of 16, so a result
 * carries at least shots/16 independent draws: the effective-sample
 * rule of tests/test_oracle_paper.cc.
 */
constexpr std::size_t kDesignEffect = 16;

/** The fixed shape of one closed-loop workload. */
struct Spec
{
    const char* name;
    std::vector<std::string> machines;
    std::vector<std::string> circuits;
    std::vector<PolicyKind> policies;
    std::size_t shots;
    /** SessionOptions::numThreads; 0 is the serial path. */
    unsigned threads;
    /**
     * Set-ups timed per untraced run, about a second's worth; setup_s
     * is their median. The first serves the run; the others follow
     * its timed phase, once peak_rss_mb has been read.
     */
    std::size_t setupRepeats;
};

const std::vector<Spec>&
specs()
{
    static const std::vector<Spec> all = {
        {"q5-mix-t4",
         {"ibmqx2", "ibmqx4"},
         {"bv-4A", "ghz-4", "qaoa-4A"},
         {std::begin(kAllPolicies), std::end(kAllPolicies)},
         2048,
         4,
         16},
        {"q5-mix-serial",
         {"ibmqx2", "ibmqx4"},
         {"bv-4A", "ghz-4", "qaoa-4A"},
         {std::begin(kAllPolicies), std::end(kAllPolicies)},
         2048,
         0,
         16},
        // 2048 shots rather than 4096: results half as long are twice
        // as likely to miss a burst of steal, so under 10% steal a
        // run still keeps over a thousand clean results.
        {"q14-fullnoise-t4",
         {"ibmq_melbourne"},
         {"bv-7", "qaoa-7"},
         {PolicyKind::Baseline, PolicyKind::Sim, PolicyKind::Aim},
         2048,
         4,
         5},
    };
    return all;
}

const Spec*
findSpec(const std::string& name)
{
    for (const Spec& spec : specs()) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

struct Cell
{
    std::uint32_t machine = 0;
    std::uint32_t circuit = 0;
    PolicyKind policy = PolicyKind::Baseline;
    std::string label;
};

/** One set-up instance of a workload: all a timed phase needs. */
struct Loop
{
    std::vector<NisqBenchmark> circuits;
    std::vector<std::unique_ptr<MachineSession>> sessions;
    /** RBMS profiles, shared by the AIM and Rebalance cells. */
    svc::ArtifactCache cache;
    /** Profile per (machine, circuit): [machine * circuits + c]. */
    std::vector<std::shared_ptr<const RbmsEstimate>> rbms;
    double rbmsProfileSeconds = 0.0;
    /** Per session, the circuit a PoolWatchdog kick runs. */
    std::vector<Circuit> kicks;
};

/** The backend runs of a traced phase. */
struct FanoutLog
{
    struct Run
    {
        std::uint32_t circuit = 0;
        std::uint64_t shots = 0;
        /** max/mean of the run's per-worker shots (1 when serial). */
        double imbalance = 1.0;
        bool complete = true;
    };

    std::vector<FanoutCircuit> circuits;
    std::vector<std::uint32_t> circuitMachine;
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    std::vector<Run> runs;

    /** Index of (@p circuit, @p machine), counting one more run. */
    std::uint32_t intern(const Circuit& circuit, std::uint32_t machine,
                         std::uint64_t shots)
    {
        const std::uint64_t key =
            svc::fnvWord(svc::fingerprintCircuit(circuit), machine);
        auto [it, inserted] = index.try_emplace(
            key, static_cast<std::uint32_t>(circuits.size()));
        if (inserted) {
            circuits.emplace_back();
            circuits.back().circuit = circuit;
            circuitMachine.push_back(machine);
        }
        FanoutCircuit& entry = circuits[it->second];
        ++entry.runs;
        entry.shots += shots;
        return it->second;
    }
};

/**
 * session.backend() with a span around every run: what the policies
 * fan out to in a traced phase. The circuit log and the per-worker
 * split read from lastRunStats() sit inside the fan-out span, so the
 * bookkeeping never lands in the policy's self time.
 */
class TimedBackend final : public Backend
{
  public:
    TimedBackend(MachineSession& session, std::uint32_t machine,
                 bool threaded, Tracer& tracer, FanoutLog& log)
        : session_(session), machine_(machine), threaded_(threaded),
          tracer_(tracer), log_(log)
    {
    }

    Tracer& tracer() { return tracer_; }

    /** The policy span the next runs belong to. */
    void setParent(std::uint32_t span) { parent_ = span; }

    Counts run(const Circuit& circuit, std::size_t shots) override
    {
        const std::uint32_t span =
            tracer_.begin(Tracer::Kind::Fanout, parent_);
        Counts counts = session_.backend().run(circuit, shots);
        FanoutLog::Run run;
        run.circuit = log_.intern(circuit, machine_, shots);
        run.shots = shots;
        run.complete = counts.total() == shots;
        if (threaded_) {
            // A copy taken under the runtime's lock: a PoolWatchdog kick
            // may be running on this backend.
            const RuntimeStats stats =
                static_cast<ParallelBackend&>(session_.backend())
                    .statsSnapshot();
            run.complete =
                run.complete && stats.valid && stats.outcome.complete();
            if (stats.valid && !stats.perWorkerShots.empty()) {
                const auto& per = stats.perWorkerShots;
                const double most = static_cast<double>(
                    *std::max_element(per.begin(), per.end()));
                const double total = static_cast<double>(std::accumulate(
                    per.begin(), per.end(), std::uint64_t{0}));
                run.imbalance =
                    total > 0.0
                        ? most * static_cast<double>(per.size()) / total
                        : 1.0;
            }
        }
        log_.runs.push_back(run);
        tracer_.end(span);
        return counts;
    }

    unsigned numQubits() const override
    {
        return session_.backend().numQubits();
    }

  private:
    MachineSession& session_;
    std::uint32_t machine_;
    bool threaded_;
    Tracer& tracer_;
    FanoutLog& log_;
    std::uint32_t parent_ = 0;
};

/** What one timed phase produced. */
struct Phase
{
    std::size_t passes = 0;
    std::uint64_t results = 0;
    std::uint64_t failed = 0;
    /** Wall seconds of the passes, and the wall time of every complete
     *  result, and the sum of their PSTs. */
    double seconds = 0.0;
    BlockLatencies wall;
    double pstSum = 0.0;
    /** The steal segments no CPU time was stolen from: their wall
     *  seconds, the complete results in them that were not contended,
     *  with their times in reference seconds (scaled by the host's
     *  speed over the pass) and the sum of those times, and the
     *  results left out as contended. */
    double cleanSeconds = 0.0;
    BlockLatencies reference;
    double referenceSeconds = 0.0;
    std::uint64_t contended = 0;
    /** The host's speed over each pass. */
    Histogram speeds;
    double stealShare = 0.0;
    std::uint64_t digest = svc::kFnvBasis;
};

/** Uncontended results per reference second of their own time. */
double
referenceRate(const Phase& phase)
{
    return phase.referenceSeconds > 0.0
               ? static_cast<double>(phase.reference.count()) /
                     phase.referenceSeconds
               : 0.0;
}

/** The first result of a cell, kept for the oracle check. */
struct OracleCase
{
    std::uint32_t cell = 0;
    Circuit circuit{1};
    /** lastPlan(), or BFA's twirl plan. */
    ModePlan plan;
    /** BFA's symmetrized rates (empty for other policies). */
    std::vector<double> rates;
    Counts counts;
};

/** One mitigated result and what produced it. */
struct Result
{
    TranspiledProgram program;
    std::unique_ptr<MitigationPolicy> policy;
    Counts counts;
};

/**
 * Did @p result execute all @p shots? BFA's unfolded log is rounded
 * per outcome, so its total may miss @p shots by up to half the
 * register's size; the twirled log it unfolds must be exact.
 */
bool
complete(const Result& result, PolicyKind kind, std::size_t shots)
{
    if (kind != PolicyKind::Bfa)
        return result.counts.total() == shots;
    const auto& bfa =
        static_cast<const BitFlipAveragePolicy&>(*result.policy);
    const double slack =
        0.5 * static_cast<double>(std::size_t{1}
                                  << result.counts.numBits());
    return bfa.lastTwirledCounts().total() == shots &&
           std::fabs(static_cast<double>(result.counts.total()) -
                     static_cast<double>(shots)) <= slack;
}

/** prod_i 1/(1 - 2 p_i): how far BFA's unfolding can stretch a
 *  sampling deviation (tests/test_policy_family_oracle.cc). */
double
unfoldInflation(const std::vector<double>& rates)
{
    double inflation = 1.0;
    for (double rate : rates)
        inflation /= 1.0 - 2.0 * rate;
    return inflation;
}

/**
 * Wakes a session's thread pool when a result stops making progress.
 * glibc 2.36's condition variable can lose a notify_one (sourceware
 * bug 25847): a ParallelBackend fan-out then waits for ever on a
 * batch that sits in its pool's queue while every worker sleeps. It
 * hung about one 20 s run of q5-mix-t4 in twenty-five. Any later
 * submission wakes a worker, which drains the queue, so when a result
 * has run for kStall the watchdog runs one shot on its session. That
 * draws a stream from the session's RNG, so the results after a kick
 * differ from those of a run without one. The kick runs beside the
 * stuck result, whose own end-of-run check in runPolicy reads the
 * runtime's stats without its lock; the benchmark reads them after
 * the result, once any kick has ended (Busy waits for it), or through
 * statsSnapshot().
 */
class PoolWatchdog
{
  public:
    PoolWatchdog() : thread_([this] { loop(); }) {}

    ~PoolWatchdog()
    {
        stop_ = true;
        thread_.join();
    }

    PoolWatchdog(const PoolWatchdog&) = delete;
    PoolWatchdog& operator=(const PoolWatchdog&) = delete;

    /** The calling thread runs work on @p session while this lives;
     *  a kick runs @p kick, a circuit for that session's machine. */
    class Busy
    {
      public:
        Busy(PoolWatchdog* dog, MachineSession& session, const Circuit& kick)
            : dog_(dog)
        {
            if (dog_ == nullptr)
                return;
            std::lock_guard<std::mutex> lock(dog_->mutex_);
            dog_->session_ = &session;
            dog_->kick_ = &kick;
            dog_->since_ = Clock::now();
        }

        ~Busy()
        {
            if (dog_ == nullptr)
                return;
            // Waits out a kick in progress, which uses the session.
            std::lock_guard<std::mutex> lock(dog_->mutex_);
            dog_->session_ = nullptr;
        }

        Busy(const Busy&) = delete;
        Busy& operator=(const Busy&) = delete;

      private:
        PoolWatchdog* dog_;
    };

    std::uint64_t kicks() const { return kicks_; }

    /** What the last kick that threw said, or "". */
    std::string error()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return error_;
    }

  private:
    static constexpr auto kPoll = std::chrono::milliseconds(100);
    static constexpr auto kStall = std::chrono::seconds(2);

    void loop()
    {
        while (!stop_) {
            std::this_thread::sleep_for(kPoll);
            std::lock_guard<std::mutex> lock(mutex_);
            if (session_ == nullptr || Clock::now() - since_ < kStall)
                continue;
            try {
                session_->backend().run(*kick_, 1);
            } catch (const std::exception& e) {
                error_ = e.what();
            }
            ++kicks_;
            since_ = Clock::now();
        }
    }

    std::mutex mutex_;
    MachineSession* session_ = nullptr;
    const Circuit* kick_ = nullptr;
    Clock::time_point since_;
    std::string error_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> kicks_{0};
    std::thread thread_; // Last: starts once the members it uses exist.
};

class Workload
{
  public:
    /** A workload whose results run under @p watchdog, when set. */
    Workload(const Spec& spec, std::uint64_t seed, PoolWatchdog* watchdog)
        : spec_(spec), seed_(seed), watchdog_(watchdog)
    {
        for (std::uint32_t m = 0; m < spec.machines.size(); ++m) {
            for (std::uint32_t c = 0; c < spec.circuits.size(); ++c) {
                for (PolicyKind kind : spec.policies) {
                    cells_.push_back(
                        {m, c, kind,
                         spec.machines[m] + "/" + spec.circuits[c] +
                             "/" + policyName(kind)});
                }
            }
        }
    }

    const std::vector<Cell>& cells() const { return cells_; }

    /**
     * Build machines, circuits (QAOA angle optimization), sessions
     * and their pools, the RBMS profiles AIM and Rebalance steer by,
     * then run one untimed warm-up pass over every cell.
     */
    std::unique_ptr<Loop> setUp() const
    {
        auto loop = std::make_unique<Loop>();
        for (const std::string& name : spec_.circuits)
            loop->circuits.push_back(makeBenchmark(name));
        for (std::uint32_t m = 0; m < spec_.machines.size(); ++m) {
            loop->sessions.push_back(std::make_unique<MachineSession>(
                makeMachine(spec_.machines[m]), seed_ + m,
                SessionOptions{spec_.threads}));
            MachineSession& session = *loop->sessions.back();
            for (const NisqBenchmark& circuit : loop->circuits) {
                const TranspiledProgram program =
                    session.prepare(circuit.circuit);
                if (loop->kicks.size() == m)
                    loop->kicks.push_back(program.circuit);
                const PoolWatchdog::Busy busy(watchdog_, session,
                                              loop->kicks[m]);
                const auto start = Clock::now();
                loop->rbms.push_back(
                    session.profileProgram(loop->cache, program));
                loop->rbmsProfileSeconds +=
                    seconds(start, Clock::now());
            }
        }
        for (std::uint32_t c : passOrder(0))
            runResult(*loop, c, nullptr);
        return loop;
    }

    /**
     * Run whole passes until @p budget seconds have elapsed, or
     * exactly @p passes passes when nonzero. With @p tracer set the
     * results run through TimedBackends logging into @p log.
     */
    Phase runPhase(Loop& loop, double budget, std::size_t passes,
                   Tracer* tracer, FanoutLog* log,
                   std::vector<OracleCase>* cases) const
    {
        std::vector<std::unique_ptr<TimedBackend>> timed;
        if (tracer != nullptr) {
            for (std::uint32_t m = 0; m < loop.sessions.size(); ++m)
                timed.push_back(std::make_unique<TimedBackend>(
                    *loop.sessions[m], m, spec_.threads > 0, *tracer,
                    *log));
        }
        Phase phase;
        std::vector<bool> seen(cells_.size(), false);
        // Steal is read between results, segments at least
        // kSegmentSeconds long, and the host's speed between passes,
        // outside their time. The timings of the open segment wait
        // in `segment` until it closes; a pass's results and seconds
        // without steal wait in `clean` until its speed is known.
        StealLog steal;
        double speedBefore = hostSpeed();
        struct Timing
        {
            std::uint32_t cell;
            double wall;
            double cpu;

            double ratio() const { return wall / std::max(cpu, 1e-9); }
        };
        std::vector<Timing> segment;
        std::vector<Timing> clean;
        double cleanSeconds = 0.0;
        std::vector<Histogram> ratios(cells_.size(),
                                      Histogram(kMinRatio, kMaxRatio));
        const auto closeSegment = [&] {
            if (steal.lastSegmentClean()) {
                clean.insert(clean.end(), segment.begin(), segment.end());
                cleanSeconds += steal.lastSegmentSeconds();
            }
            segment.clear();
            steal.forget();
        };
        for (std::size_t pass = 1;; ++pass) {
            steal.sample(true);
            const double passBegan = steal.now();
            for (std::uint32_t c : passOrder(pass)) {
                const Cell& cell = cells_[c];
                ++phase.results;
                const double cpuBegan = processCpuSeconds();
                const double began = steal.now();
                Result result;
                try {
                    result = runResult(
                        loop, c, tracer ? timed[cell.machine].get() : nullptr);
                } catch (const std::exception&) {
                    ++phase.failed;
                    continue;
                }
                const double wall = steal.now() - began;
                const double cpu = processCpuSeconds() - cpuBegan;
                bool ok = complete(result, cell.policy, spec_.shots);
                if (tracer == nullptr) {
                    const RuntimeStats* stats =
                        loop.sessions[cell.machine]->lastRunStats();
                    ok = ok && stats != nullptr &&
                         stats->outcome.complete();
                }
                if (!ok) {
                    ++phase.failed;
                    continue;
                }
                phase.wall.add(wall);
                segment.push_back({c, wall, cpu});
                phase.pstSum +=
                    reliability(result.counts,
                                loop.circuits[cell.circuit].acceptedOutputs)
                        .pst;
                phase.digest = digestCounts(phase.digest, result.counts);
                if (cases != nullptr && !seen[c]) {
                    seen[c] = true;
                    cases->push_back(oracleCase(c, std::move(result)));
                }
                if (steal.sample())
                    closeSegment();
            }
            phase.seconds += steal.now() - passBegan;
            steal.sample(true);
            closeSegment();
            // The reference work can only be slowed by an interruption,
            // so the faster of the two runs reads the host's speed.
            const double speedAfter = hostSpeed();
            const double speed = std::max(speedBefore, speedAfter);
            speedBefore = speedAfter;
            phase.speeds.add(speed);
            phase.cleanSeconds += cleanSeconds;
            for (const Timing& t : clean)
                ratios[t.cell].add(t.ratio());
            for (const Timing& t : clean) {
                const double quiet =
                    ratios[t.cell].percentile(kQuietRatioQuantile);
                if (t.ratio() > kContendedSlack * quiet) {
                    ++phase.contended;
                    continue;
                }
                phase.reference.add(t.wall * speed);
                phase.referenceSeconds += t.wall * speed;
            }
            phase.reference.cut();
            phase.wall.cut();
            clean.clear();
            cleanSeconds = 0.0;
            phase.passes = pass;
            if (passes > 0 ? pass >= passes
                           : steal.now() >= budget &&
                                 (steal.now() >= budget * kMaxBudgetStretch ||
                                  phase.reference.count() >=
                                      kMinCleanResults))
                break;
        }
        phase.stealShare = steal.stealShare();
        return phase;
    }

  private:
    /** Cell indices in the seeded order of pass @p pass. */
    std::vector<std::uint32_t> passOrder(std::size_t pass) const
    {
        std::vector<std::uint32_t> order(cells_.size());
        std::iota(order.begin(), order.end(), 0u);
        Rng rng = Rng(seed_).splitAt(pass);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.index(i)]);
        return order;
    }

    std::unique_ptr<MitigationPolicy>
    makePolicy(const Loop& loop, const Cell& cell,
               const TranspiledProgram& program) const
    {
        const auto& rbms =
            loop.rbms[cell.machine * spec_.circuits.size() +
                      cell.circuit];
        switch (cell.policy) {
        case PolicyKind::Baseline:
            return std::make_unique<BaselinePolicy>();
        case PolicyKind::Sim:
            return std::make_unique<StaticInvertAndMeasure>();
        case PolicyKind::Aim:
            return std::make_unique<AdaptiveInvertAndMeasure>(rbms);
        case PolicyKind::Rebalance:
            return std::make_unique<RebalancePolicy>(rbms);
        case PolicyKind::Bfa: {
            BfaOptions options;
            options.numGroups = kBfaGroups;
            options.symmetrizedRates = symmetrizedReadoutRates(
                loop.sessions[cell.machine]->machine(), program);
            return std::make_unique<BitFlipAveragePolicy>(options);
        }
        }
        throw std::logic_error("unknown policy kind");
    }

    /** One result; traced through @p timed when it is set. */
    Result runResult(Loop& loop, std::uint32_t c, TimedBackend* timed) const
    {
        const Cell& cell = cells_[c];
        MachineSession& session = *loop.sessions[cell.machine];
        const Circuit& logical = loop.circuits[cell.circuit].circuit;
        const PoolWatchdog::Busy busy(watchdog_, session,
                                      loop.kicks[cell.machine]);
        Result result;
        if (timed == nullptr) {
            result.program = session.prepare(logical);
            result.policy = makePolicy(loop, cell, result.program);
            result.counts = session.runPolicy(
                result.program, *result.policy, spec_.shots);
            return result;
        }
        Tracer& tracer = timed->tracer();
        const std::uint32_t root = tracer.begin(Tracer::Kind::Result, 0, c);
        const std::uint32_t transpile =
            tracer.begin(Tracer::Kind::Transpile, root);
        result.program = session.prepare(logical);
        tracer.end(transpile);
        result.policy = makePolicy(loop, cell, result.program);
        const std::uint32_t policy = tracer.begin(Tracer::Kind::Policy, root);
        timed->setParent(policy);
        result.counts = result.policy->run(result.program.circuit,
                                           *timed, spec_.shots);
        tracer.end(policy);
        tracer.end(root);
        return result;
    }

    OracleCase oracleCase(std::uint32_t c, Result result) const
    {
        OracleCase out;
        out.cell = c;
        out.circuit = std::move(result.program.circuit);
        if (cells_[c].policy == PolicyKind::Bfa) {
            const auto& bfa =
                static_cast<const BitFlipAveragePolicy&>(*result.policy);
            out.plan = bfa.lastTwirlPlan();
            out.rates = bfa.symmetrizedRates();
        } else {
            out.plan = result.policy->lastPlan();
        }
        out.counts = std::move(result.counts);
        return out;
    }

    const Spec& spec_;
    std::uint64_t seed_;
    PoolWatchdog* watchdog_;
    std::vector<Cell> cells_;
};

/**
 * ExactOracle::correctedDistribution of every distinct (machine,
 * circuit, inversion) the plan-shaped @p cases ran, evolved on all
 * CPUs: a melbourne mode costs seconds of density-matrix work, and
 * the cells of one circuit share most of their modes.
 */
std::map<std::tuple<std::uint32_t, std::uint64_t, InversionString>,
         std::vector<double>>
modeDistributions(
    const std::vector<Cell>& cells, const std::vector<OracleCase>& cases,
    const std::vector<std::unique_ptr<verify::ExactOracle>>& oracles)
{
    using Key = std::tuple<std::uint32_t, std::uint64_t, InversionString>;
    struct Work
    {
        const verify::ExactOracle* oracle;
        const Circuit* circuit;
        InversionString inversion;
        std::vector<double>* out; // A map node: stable.
    };
    std::map<Key, std::vector<double>> dists;
    std::vector<Work> work;
    for (const OracleCase& c : cases) {
        const Cell& cell = cells[c.cell];
        if (cell.policy == PolicyKind::Bfa)
            continue;
        const std::uint64_t fp = svc::fingerprintCircuit(c.circuit);
        for (const ModeShare& mode : c.plan) {
            if (mode.shots == 0)
                continue;
            auto [it, inserted] =
                dists.try_emplace({cell.machine, fp, mode.inversion});
            if (inserted)
                work.push_back({oracles[cell.machine].get(), &c.circuit,
                                mode.inversion, &it->second});
        }
    }
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::string error;
    auto worker = [&] {
        for (std::size_t i = next++; i < work.size(); i = next++) {
            const Work& w = work[i];
            try {
                *w.out = w.oracle->correctedDistribution(*w.circuit,
                                                         w.inversion);
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(errorMutex);
                error = e.what();
            }
        }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 1; t < availableCpus(); ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread& thread : threads)
        thread.join();
    if (!error.empty())
        throw std::runtime_error("oracle: " + error);
    return dists;
}

/**
 * The first result of every cell against the ExactOracle: its TVD
 * to the analytic distribution of the realized plan must lie within
 * the effective-sample concentration radius.
 */
void
checkOracle(const Spec& spec, const std::vector<Cell>& cells,
            const Loop& loop, const std::vector<OracleCase>& cases,
            Report& report)
{
    if (cases.size() != cells.size())
        report.fail("oracle: " + std::to_string(cases.size()) + " of " +
                    std::to_string(cells.size()) + " cells produced a "
                    "complete result");
    std::vector<std::unique_ptr<verify::ExactOracle>> oracles;
    for (const auto& session : loop.sessions)
        oracles.push_back(
            std::make_unique<verify::ExactOracle>(session->machine()));
    for (const OracleCase& c : cases) {
        if (!oracles[cells[c.cell].machine]->supports(c.circuit)) {
            report.fail("oracle: " + cells[c.cell].label +
                        " is outside the exact envelope");
            return;
        }
    }
    const auto modes = modeDistributions(cells, cases, oracles);
    const double alpha = kOracleAlpha / static_cast<double>(cells.size());
    double worst = 0.0;
    for (const OracleCase& c : cases) {
        const Cell& cell = cells[c.cell];
        const bool bfa = cell.policy == PolicyKind::Bfa;
        std::vector<double> dist;
        if (bfa) {
            dist = oracles[cell.machine]->bfaCorrectedDistribution(
                c.circuit, c.plan, c.rates);
        } else {
            // The plan's mixture, as ExactOracle::planDistribution
            // forms it, over the shared mode distributions.
            const std::uint64_t fp = svc::fingerprintCircuit(c.circuit);
            double total = 0.0;
            for (const ModeShare& mode : c.plan)
                total += static_cast<double>(mode.shots);
            dist.assign(std::size_t{1} << c.circuit.numClbits(), 0.0);
            for (const ModeShare& mode : c.plan) {
                if (mode.shots == 0)
                    continue;
                const std::vector<double>& corrected =
                    modes.at({cell.machine, fp, mode.inversion});
                const double weight =
                    static_cast<double>(mode.shots) / total;
                for (std::size_t x = 0; x < dist.size(); ++x)
                    dist[x] += weight * corrected[x];
            }
        }
        const std::size_t support = std::size_t{1}
                                    << c.counts.numBits();
        double bound = verify::tvdBound(
            support, spec.shots / kDesignEffect, alpha);
        if (bfa) {
            // The unfolded log is a linear image of the twirled one:
            // inflate the radius as the tier-2 BFA check does, plus
            // the per-outcome rounding.
            bound = 2.0 * unfoldInflation(c.rates) * bound +
                    static_cast<double>(support) /
                        static_cast<double>(c.counts.total());
        }
        const double tvd = verify::totalVariation(c.counts, dist);
        worst = std::max(worst, tvd / bound);
        if (tvd > bound)
            report.fail("oracle: " + cell.label + " tvd " +
                        std::to_string(tvd) + " exceeds bound " +
                        std::to_string(bound));
    }
    report.metrics.set("check.oracle_tvd_over_bound_max", worst, "ratio");
}

/**
 * The per-layer table of a traced phase, from its spans, its fan-out
 * log and the replay probes.
 */
void
layerMetrics(const Spec& spec, const std::vector<Cell>& cells,
             const Tracer& tracer, const FanoutLog& log,
             const std::vector<ReplayCost>& costs, MetricTable& m)
{
    const auto& spans = tracer.spans();
    std::vector<double> childSeconds(spans.size() + 1, 0.0);
    std::vector<std::uint32_t> fanouts(spans.size() + 1, 0);
    for (const Tracer::Span& s : spans) {
        childSeconds[s.parent] += s.seconds();
        if (s.kind == Tracer::Kind::Fanout)
            ++fanouts[s.parent];
    }

    constexpr std::size_t kKinds = std::size(kAllPolicies);
    std::vector<double> resultsByKind(kKinds, 0.0);
    std::vector<double> fanoutsByKind(kKinds, 0.0);
    std::vector<std::vector<double>> selfByKind(kKinds);
    std::vector<double> transpile;
    std::vector<double> fanoutWall;
    double results = 0.0;
    double resultTotal = 0.0;
    double unattributed = 0.0;
    double transpileTotal = 0.0;
    double selfTotal = 0.0;
    double fanoutTotal = 0.0;
    for (std::uint32_t id = 1; id <= spans.size(); ++id) {
        const Tracer::Span& s = tracer.span(id);
        switch (s.kind) {
        case Tracer::Kind::Result: {
            results += 1.0;
            resultTotal += s.seconds();
            unattributed += s.seconds() - childSeconds[id];
            resultsByKind[static_cast<std::size_t>(cells[s.tag].policy)] +=
                1.0;
            break;
        }
        case Tracer::Kind::Transpile:
            transpile.push_back(s.seconds());
            transpileTotal += s.seconds();
            break;
        case Tracer::Kind::Policy: {
            const auto kind = static_cast<std::size_t>(
                cells[tracer.span(s.parent).tag].policy);
            const double self = s.seconds() - childSeconds[id];
            selfByKind[kind].push_back(self);
            selfTotal += self;
            fanoutsByKind[kind] += fanouts[id];
            break;
        }
        case Tracer::Kind::Fanout:
            fanoutWall.push_back(s.seconds());
            fanoutTotal += s.seconds();
            break;
        }
    }

    // Every fan-out lowers its circuit once on the calling thread and
    // spreads the shots over the workers.
    NoiseWork work;
    double imbalance = 0.0;
    for (const FanoutLog::Run& run : log.runs) {
        work.add(costs[run.circuit], run.shots, true);
        imbalance += run.imbalance;
    }
    const double threads = std::max(1u, spec.threads);
    const double runs = static_cast<double>(log.runs.size());

    m.set("transpile.us_p50", percentile(transpile, 0.5) * 1e6, "us");
    m.set("transpile.share", transpileTotal / resultTotal, "fraction");
    double allFanouts = 0.0;
    for (std::size_t k = 0; k < kKinds; ++k) {
        const std::string name = policyName(kAllPolicies[k]);
        m.set("runtime.fanouts_per_result." + name,
              resultsByKind[k] > 0.0 ? fanoutsByKind[k] / resultsByKind[k]
                                     : 0.0,
              "count");
        if (!selfByKind[k].empty())
            m.set("mitigation.self_us." + name,
                  percentile(selfByKind[k], 0.5) * 1e6, "us");
        allFanouts += fanoutsByKind[k];
    }
    m.set("runtime.fanouts_per_result", allFanouts / results, "count");
    m.set("runtime.fanout_ms_p50", percentile(fanoutWall, 0.5) * 1e3,
          "ms");
    // The noise shares and the runtime overhead split the fan-out
    // time: a perfectly parallel fan-out would take lower + exec /
    // threads, and the rest is runtime overhead.
    m.set("noise.lower_share", work.lower / resultTotal, "fraction");
    m.set("noise.evolve_share", work.evolve / threads / resultTotal,
          "fraction");
    m.set("noise.sample_readout_share",
          work.sampleReadout / threads / resultTotal, "fraction");
    m.set("runtime.overhead_share",
          (fanoutTotal - work.lower - work.exec() / threads) / resultTotal,
          "fraction");
    m.set("runtime.parallel_efficiency",
          (work.lower + work.exec()) / (threads * fanoutTotal), "fraction");
    m.set("runtime.worker_imbalance", runs > 0.0 ? imbalance / runs : 1.0,
          "ratio");
    m.set("mitigation.self_share", selfTotal / resultTotal, "fraction");
    m.set("bench.unattributed_share", unattributed / resultTotal,
          "fraction");
    // The service layer is not on a closed loop's path.
    m.set("service.cache_hit_rate.hot", 0.0, "fraction");
    m.set("service.cache_miss_rate.cold", 0.0, "fraction");
    m.set("service.queue_wait_share", 0.0, "fraction");
}

} // namespace

bool
isClosedLoop(const std::string& workload)
{
    return findSpec(workload) != nullptr;
}

Report
runClosedLoop(const RunConfig& config)
{
    const Spec& spec = *findSpec(config.workload);
    telemetry::setEnabled(false);
    // Only a threaded session has a pool to wake.
    std::unique_ptr<PoolWatchdog> watchdog;
    if (spec.threads > 0)
        watchdog = std::make_unique<PoolWatchdog>();
    const Workload workload(spec, config.seed, watchdog.get());
    Report report;
    MetricTable& m = report.metrics;

    telemetry::JsonValue& k = report.constants;
    telemetry::JsonValue machines = telemetry::JsonValue::array();
    for (const std::string& name : spec.machines)
        machines.push(telemetry::JsonValue(name));
    telemetry::JsonValue circuits = telemetry::JsonValue::array();
    for (const std::string& name : spec.circuits)
        circuits.push(telemetry::JsonValue(name));
    telemetry::JsonValue policies = telemetry::JsonValue::array();
    for (PolicyKind kind : spec.policies)
        policies.push(telemetry::JsonValue(policyName(kind)));
    k["machines"] = std::move(machines);
    k["circuits"] = std::move(circuits);
    k["policies"] = std::move(policies);
    k["cells"] = telemetry::JsonValue(
        static_cast<std::uint64_t>(workload.cells().size()));
    k["shots"] = telemetry::JsonValue(static_cast<std::uint64_t>(spec.shots));
    k["threads"] = telemetry::JsonValue(spec.threads);
    k["bfa_groups"] = telemetry::JsonValue(kBfaGroups);
    k["setup_repeats"] =
        telemetry::JsonValue(static_cast<std::uint64_t>(spec.setupRepeats));
    k["oracle_alpha"] = telemetry::JsonValue(kOracleAlpha);

    SetupTimer setups;
    std::unique_ptr<Loop> loop =
        setups.time([&] { return workload.setUp(); });

    // A traced run splits its time between the untraced phase and a
    // traced replay of the same passes.
    std::vector<OracleCase> cases;
    const Phase untraced = workload.runPhase(
        *loop, config.trace ? config.seconds / 2 : config.seconds, 0,
        nullptr, nullptr, &cases);
    report.attempted += untraced.results;
    report.failed += untraced.failed;
    m.set("peak_rss_mb", peakRssMb(), "MB");
    if (!config.trace) {
        // After the phase and its memory reading, so that neither
        // sees a second Loop.
        while (setups.count() < spec.setupRepeats)
            setups.time([&] { return workload.setUp(); });
    }

    const double completed = static_cast<double>(untraced.wall.count());
    const double untracedRate = referenceRate(untraced);
    m.set("setup_s", setups.median(), "s");
    m.set("results_per_s", untracedRate, "1/s");
    setLatencyMetrics(untraced.reference, m);
    m.set("results_per_s.wall", completed / untraced.seconds, "1/s");
    setLatencyMetrics(untraced.wall, m, ".wall");
    m.set("host.speed", untraced.speeds.percentile(0.5), "ratio");
    m.set("host.steal_share", untraced.stealShare, "fraction");
    m.set("bench.clean_share", untraced.cleanSeconds / untraced.seconds,
          "fraction");
    m.set("bench.contended_share",
          static_cast<double>(untraced.contended) /
              static_cast<double>(untraced.contended +
                                  untraced.reference.count()),
          "fraction");
    m.set("pst_mean", untraced.pstSum / completed, "fraction");
    m.set("failed_frac",
          static_cast<double>(untraced.failed) /
              static_cast<double>(untraced.results),
          "fraction");
    m.set("passes", static_cast<double>(untraced.passes), "count");
    m.set("mitigation.rbms_profile_ms", loop->rbmsProfileSeconds * 1e3,
          "ms");

    if (config.trace) {
        loop.reset();
        loop = workload.setUp();
        Tracer tracer;
        FanoutLog log;
        const Phase traced = workload.runPhase(*loop, 0.0, untraced.passes,
                                               &tracer, &log, nullptr);
        report.attempted += traced.results;
        report.failed += traced.failed;
        // A kick drew from a session's stream, so only runs without one
        // must agree.
        if (traced.digest != untraced.digest &&
            (watchdog == nullptr || watchdog->kicks() == 0))
            report.fail("traced results differ from the untraced ones "
                        "for the same seed");
        for (const FanoutLog::Run& run : log.runs) {
            if (!run.complete) {
                report.fail("a traced fan-out was incomplete");
                break;
            }
        }

        std::vector<NoiseModel> models;
        for (const auto& session : loop->sessions)
            models.push_back(session->machine().noiseModel());
        for (std::size_t i = 0; i < log.circuits.size(); ++i)
            log.circuits[i].model = &models[log.circuitMachine[i]];
        const std::vector<ReplayCost> costs = probeNoise(log.circuits, m);
        layerMetrics(spec, workload.cells(), tracer, log, costs, m);
        m.set("bench.trace_overhead_frac",
              1.0 - referenceRate(traced) / untracedRate, "fraction");

        std::vector<std::string> labels;
        for (const Cell& cell : workload.cells())
            labels.push_back(cell.label);
        report.trace = tracer.toJson(labels);
    }

    if (report.failed > 0)
        report.fail(std::to_string(report.failed) +
                    " results failed or were incomplete");
    m.set("check.pool_kicks",
          watchdog ? static_cast<double>(watchdog->kicks()) : 0.0, "count");
    if (watchdog && !watchdog->error().empty())
        report.fail("a watchdog kick threw: " + watchdog->error());
    checkOracle(spec, workload.cells(), *loop, cases, report);
    return report;
}

} // namespace e2e
