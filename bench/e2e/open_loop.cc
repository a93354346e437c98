/**
 * @file
 * The open-loop service workload: svc-open-loop.
 *
 * A JobService with three pool workers takes seeded Poisson arrivals,
 * with telemetry and the flight recorder on. Arrivals belong to three
 * classes:
 *
 *  - interactive (70%): Interactive priority, 512 shots, drawn from a
 *    hot set of 24 circuits — the six transpiled 5-qubit programs
 *    times their four SIM inversion rewrites;
 *  - batch (25%): Batch priority, 8192 shots, the same hot set;
 *  - cold (5%): Background priority, 256 shots, the re-profiling
 *    circuit of recalibration (svc::holdoutPrepCircuit) for a random
 *    basis state of a random 7-qubit register of melbourne.
 *
 * So the artifact cache sees steady hits (hot set) beside steady
 * misses (cold set). Eight tenants share the service, fed by one
 * generator thread (a second thread records finished jobs); every
 * job's key is its arrival index. The
 * offered rate climbs a ladder of three fixed steps. Latency runs
 * from the scheduled send time to the terminal state, so a stall
 * also charges the wait it imposes on later sends. A ladder whose
 * generator fell behind by itself (woke late, not held up in
 * submit()) did not offer the scheduled load: it is run again, and
 * a run that never offers it reports nothing.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hh"
#include "machine/machines.hh"
#include "metrics/reliability.hh"
#include "mitigation/inversion.hh"
#include "noise/trajectory.hh"
#include "runtime/shot_plan.hh"
#include "service/job_service.hh"
#include "service/staleness.hh"
#include "telemetry/telemetry.hh"
#include "transpile/transpiler.hh"

namespace e2e
{

namespace
{

using namespace qem;

constexpr unsigned kWorkers = 3;
constexpr unsigned kTenants = 8;
constexpr double kInteractiveShare = 0.70;
constexpr double kBatchShare = 0.25; // Cold takes the remaining 5%.
constexpr std::size_t kInteractiveShots = 512;
constexpr std::size_t kBatchShots = 8192;
constexpr std::size_t kColdShots = 256;
/** Cold jobs prepare a random basis state of a random register of
 *  this many melbourne qubits, as a re-profiling job over a 7-bit
 *  program's register does. */
constexpr unsigned kColdRegisterBits = 7;
constexpr unsigned kColdMachineQubits = 14;

/**
 * Offered rates of the low/mid/high steps, in jobs/s: 30%, 55% and
 * 80% of the slowest of five saturation throughputs measured at the
 * parent commit on the host in README.md (2780 to 3420 jobs/s), so
 * the high step stays below saturation while the host is slow. Fixed
 * here, never derived from the run under test. (A lower ladder,
 * 20/35/50%, read a worse and noisier p99: idle workers and a
 * sleeping generator pay the virtual CPUs' wake-up time.)
 */
constexpr std::array<double, 3> kLadderRates = {835.0, 1530.0, 2225.0};
constexpr std::array<const char*, 3> kStepNames = {"low", "mid", "high"};
/** Share of the ladder each step runs for. The middle step, whose
 *  interactive latency is the headline, gets half, so that its p99
 *  keeps a few thousand samples once intervals with steal are set
 *  aside. */
constexpr std::array<double, 3> kStepShares = {0.25, 0.5, 0.25};
/**
 * The step the headline latency and memory come from. Its memory is
 * read as it ends: when the host slows, the high step runs into
 * saturation and its backlog, and the memory that holds it, follows
 * the host rather than the program (peak_rss_mb.all covers the whole
 * ladder).
 */
constexpr std::uint32_t kHeadlineStep = 1;
/** Interactive p99 limit: about 3x the low step's p99 there. */
constexpr double kSloMs = 1.8;
/**
 * A ladder whose generator was late by more than this share of the
 * SLO at p99, counting only its own delays (wake-up, bookkeeping) and
 * not time blocked in submit(), did not offer the scheduled load.
 */
constexpr double kLatenessValidity = 0.10;
/** Ladders a run tries before it gives up without a result. */
constexpr int kLadderTries = 3;
/**
 * A ladder is run again (within kLadderTries) when fewer than this
 * share of its headline step's interactive jobs ran clear of steal.
 * Under 3% steal a ladder kept 43% of them; under 12% it kept 3%, and
 * their p99 read 1.47 ms against 0.25 ms on the other nine of ten
 * seeds.
 */
constexpr double kMinCleanShare = 0.25;
/** A queue is growing when both its mean depth over a step's last third
 *  and its depth as the step ends exceed twice the mean of its first
 *  third plus two batch jobs. (The trend alone flagged high steps whose
 *  queue had drained to a few batches by the step's end: at 80% load a
 *  burst of batch jobs holds a thousand batches for a while.) */
constexpr double kGrowthSlackBatches = 64.0;
/** A burst of steal delays the jobs due up to this long after it: the
 *  backlog it leaves takes that long to drain. */
constexpr double kBacklogSeconds = 0.05;
/** The kernel counts a stall's steal when the virtual CPU runs again,
 *  so it can show up to this long after the job it delayed finished.
 *  (Over six runs under 4 to 11% steal, the middle step's p99 ranged
 *  over 110% of its median without it, and over 17% with it.) */
constexpr double kStealSettleSeconds = 0.02;
/** The collector looks for finished jobs at least this often. */
constexpr auto kCollectPoll = std::chrono::milliseconds(1);
/** The generator reads the host's speed about this often, in a gap of
 *  its schedule at least kSpeedGap long (several reference runs), so
 *  that the reading never delays a send. */
constexpr auto kSpeedEvery = std::chrono::milliseconds(10);
constexpr auto kSpeedGap = std::chrono::milliseconds(1);
/** Every this-many-th admitted job is replayed serially. */
constexpr std::uint64_t kReplayEvery = 50;
/** Distinct cold circuits the replay probes sample. */
constexpr std::size_t kProbeColdCircuits = 32;
/** Set-ups timed per untraced run; setup_s is their median. One takes
 *  a few milliseconds. */
constexpr std::size_t kSetupRepeats = 25;
/** Admission bound: four times the service default. */
constexpr std::size_t kQueuedBatches = 16384;

constexpr const char* kHotMachines[] = {"ibmqx2", "ibmqx4"};
constexpr const char* kHotCircuits[] = {"bv-4A", "ghz-4", "qaoa-4A"};
constexpr const char* kColdMachine = "ibmq_melbourne";

enum class JobClass : std::uint8_t
{
    Interactive,
    Batch,
    Cold,
};

constexpr std::array<const char*, 3> kClassNames = {"interactive",
                                                    "batch", "cold"};

struct HotCircuit
{
    std::string machine;
    Circuit circuit{1};
    /** Accepted outputs as the rewritten circuit reads them. */
    std::vector<BasisState> accepted;
};

/** A set-up service with its registered machines and hot cache. */
struct Setup
{
    std::unique_ptr<svc::JobService> service;
    std::vector<std::string> machines;
    std::vector<NoiseModel> models;
    std::vector<HotCircuit> hot;
    std::vector<double> transpileSeconds;

    std::size_t machineIndex(const std::string& name) const
    {
        return static_cast<std::size_t>(
            std::find(machines.begin(), machines.end(), name) -
            machines.begin());
    }
};

/** Service, machines, hot-set transpiles and a warm cache. */
std::unique_ptr<Setup>
setUp(std::uint64_t seed)
{
    auto setup = std::make_unique<Setup>();
    svc::ServiceOptions options;
    options.numThreads = kWorkers;
    options.flightRecorder = true;
    // A host slowdown at the high step should show as queueing
    // latency, not as admission rejections.
    options.maxQueuedBatches = kQueuedBatches;
    setup->service = std::make_unique<svc::JobService>(options, seed);

    std::vector<Machine> machines;
    for (const char* name : {"ibmqx2", "ibmqx4", kColdMachine}) {
        machines.push_back(makeMachine(name));
        setup->machines.push_back(name);
        setup->models.push_back(machines.back().noiseModel());
        setup->service->registerMachine(
            name, TrajectorySimulator(setup->models.back(), seed));
    }

    for (const char* name : kHotCircuits) {
        const NisqBenchmark bench = makeBenchmark(name);
        for (const char* machine : kHotMachines) {
            const Transpiler transpiler(
                machines[setup->machineIndex(machine)]);
            TranspiledProgram program;
            // Repeated so the transpile layer has a steady median.
            for (int i = 0; i < 5; ++i) {
                const auto start = Clock::now();
                program = transpiler.transpile(bench.circuit);
                setup->transpileSeconds.push_back(
                    seconds(start, Clock::now()));
            }
            const auto bits = static_cast<unsigned>(
                program.circuit.measuredQubits().size());
            for (InversionString inv : fourModeStrings(bits)) {
                HotCircuit hot;
                hot.machine = machine;
                hot.circuit = applyInversion(program.circuit, inv);
                for (BasisState out : bench.acceptedOutputs)
                    hot.accepted.push_back(out ^ inv);
                setup->hot.push_back(std::move(hot));
            }
        }
    }

    std::vector<svc::JobHandle> warm;
    for (std::size_t i = 0; i < setup->hot.size(); ++i) {
        svc::JobOptions job;
        job.tenant = "warm";
        job.priority = svc::JobPriority::Interactive;
        job.jobKey = i;
        warm.push_back(setup->service->submit(setup->hot[i].machine,
                                              setup->hot[i].circuit,
                                              kInteractiveShots, job));
    }
    for (const svc::JobHandle& handle : warm)
        handle.get();
    return setup;
}

struct Arrival
{
    std::uint64_t index = 0;
    JobClass cls = JobClass::Interactive;
    std::uint32_t step = 0;
    std::uint32_t tenant = 0;
    std::uint32_t hot = 0;
    /** Cold jobs: the prepared basis state over the register... */
    BasisState cold = 0;
    /** ...a bit mask of melbourne qubits. */
    std::uint16_t coldRegister = 0;
    /** Scheduled send time, seconds after the ladder starts. */
    double due = 0.0;

    /** Identifies a cold job's circuit. */
    std::uint64_t coldKey() const
    {
        return std::uint64_t{coldRegister} << 32 | cold;
    }

    std::size_t shots() const
    {
        switch (cls) {
        case JobClass::Interactive:
            return kInteractiveShots;
        case JobClass::Batch:
            return kBatchShots;
        case JobClass::Cold:
            return kColdShots;
        }
        return 0;
    }
};

/** When step @p step starts, in seconds into a ladder of
 *  @p ladder_seconds; step kStepNames.size() is its end. */
double
stepBegin(std::uint32_t step, double ladder_seconds)
{
    double share = 0.0;
    for (std::uint32_t s = 0; s < step; ++s)
        share += kStepShares[s];
    return share * ladder_seconds;
}

/**
 * The seeded arrival schedule: Poisson arrivals at kLadderRates over
 * a ladder of @p ladder_seconds. Content draws are keyed by arrival
 * index, so they do not depend on the timing draws.
 */
std::vector<Arrival>
schedule(std::uint64_t seed, double ladder_seconds,
         std::size_t hot_circuits)
{
    std::vector<Arrival> arrivals;
    for (std::uint32_t s = 0; s < kLadderRates.size(); ++s) {
        Rng gaps = Rng(seed).splitAt(1).splitAt(s);
        const double end = stepBegin(s + 1, ladder_seconds);
        double t = stepBegin(s, ladder_seconds);
        for (;;) {
            t += -std::log(1.0 - gaps.uniform()) / kLadderRates[s];
            if (t >= end)
                break;
            Arrival a;
            a.index = arrivals.size();
            a.step = s;
            a.due = t;
            Rng pick = Rng(seed).splitAt(2).splitAt(a.index);
            const double u = pick.uniform();
            a.cls = u < kInteractiveShare ? JobClass::Interactive
                    : u < kInteractiveShare + kBatchShare
                        ? JobClass::Batch
                        : JobClass::Cold;
            a.tenant = static_cast<std::uint32_t>(pick.index(kTenants));
            a.hot = static_cast<std::uint32_t>(pick.index(hot_circuits));
            std::array<Qubit, kColdMachineQubits> qubits;
            std::iota(qubits.begin(), qubits.end(), Qubit{0});
            for (unsigned i = 0; i < kColdRegisterBits; ++i) {
                std::swap(qubits[i],
                          qubits[i + pick.index(kColdMachineQubits - i)]);
                a.coldRegister |= std::uint16_t(1u << qubits[i]);
            }
            a.cold = pick.index(std::uint64_t{1} << kColdRegisterBits);
            arrivals.push_back(a);
        }
    }
    return arrivals;
}

/** What happened to one arrival. */
struct JobSample
{
    Arrival arrival;
    bool admitted = false;
    bool ok = false;
    /** Scheduled send to terminal, seconds. */
    double latency = 0.0;
    /** Send time minus scheduled time. */
    double lateness = 0.0;
    /** The part of the lateness the generator caused itself: send
     *  time minus the later of the schedule and the return of the
     *  previous submit(). */
    double ownLateness = 0.0;
    double submit = 0.0;
    double queueWait = 0.0;
    double exec = 0.0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** PST of a hot job against its rewritten accepted outputs. */
    double pst = 0.0;
    /** Completed, and no CPU time was stolen from kBacklogSeconds
     *  before its due time to kStealSettleSeconds after its terminal
     *  state. */
    bool clean = false;
};

/** An admitted job kept for the serial replay check. */
struct Kept
{
    Arrival arrival;
    Counts counts;
};

/** Queue depth seen by the generator at one arrival. */
struct DepthSample
{
    std::uint32_t step = 0;
    double t = 0.0;
    double depth = 0.0;
};

struct LadderRun
{
    std::vector<JobSample> jobs;
    std::vector<Kept> kept;
    std::vector<DepthSample> depths;
    /** Ladder start to the last job's terminal state. */
    double seconds = 0.0;
    std::vector<double> backlogEnd;
    /** The host's speed readings. */
    std::vector<double> speeds;
    double stealShare = 0.0;
    double cleanSeconds = 0.0;
    /** peakRssMb() when the headline step ended. */
    double peakRssMb = 0.0;
};

Circuit
coldCircuit(const Arrival& a)
{
    std::vector<Qubit> qubits;
    for (Qubit q = 0; q < kColdMachineQubits; ++q) {
        if (a.coldRegister >> q & 1u)
            qubits.push_back(q);
    }
    return svc::holdoutPrepCircuit(kColdMachineQubits, qubits, a.cold);
}

const std::string&
machineOf(const Setup& setup, const Arrival& a)
{
    static const std::string cold = kColdMachine;
    return a.cls == JobClass::Cold ? cold : setup.hot[a.hot].machine;
}

/**
 * Records finished jobs on a thread of its own, so the generator
 * never waits on a job: JobHandle::record() blocks until the job's
 * audit entry is written, which can queue behind the service's
 * workers. Jobs are recorded as they finish, in any order, and
 * released at once: a held job keeps its per-batch histograms alive.
 * It also samples the ladder's steal log.
 */
class Collector
{
  public:
    Collector(const Setup& setup, std::vector<JobSample>& jobs,
              StealLog& steal)
        : setup_(setup), jobs_(jobs), steal_(steal),
          thread_([this] { loop(); })
    {
    }

    ~Collector() { stop(); }

    Collector(const Collector&) = delete;
    Collector& operator=(const Collector&) = delete;

    /** Record @p handle into jobs[@p slot] once it finishes. The
     *  caller has written that sample and never touches it again. */
    void push(std::uint64_t slot, svc::JobHandle handle)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back(slot, std::move(handle));
        }
        ready_.notify_one();
    }

    /** Record every pushed job, then stop; rethrows a failure. */
    void finish()
    {
        stop();
        if (failure_)
            std::rethrow_exception(failure_);
    }

    /** Every kReplayEvery-th job, kept for the replay check. */
    std::vector<Kept> kept;

  private:
    void stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_one();
        if (thread_.joinable())
            thread_.join();
    }

    void loop()
    {
        try {
            std::vector<std::pair<std::uint64_t, svc::JobHandle>> pending;
            for (;;) {
                bool closed = false;
                {
                    std::unique_lock<std::mutex> lock(mutex_);
                    ready_.wait_for(lock, kCollectPoll,
                                    [this] { return !queue_.empty(); });
                    for (auto& item : queue_)
                        pending.push_back(std::move(item));
                    queue_.clear();
                    closed = closed_;
                }
                steal_.sample();
                std::erase_if(pending, [this](const auto& item) {
                    if (!svc::isTerminal(item.second.status()))
                        return false;
                    collect(jobs_[item.first], item.second);
                    return true;
                });
                if (closed && pending.empty())
                    return;
            }
        } catch (...) {
            failure_ = std::current_exception();
        }
    }

    void collect(JobSample& job, const svc::JobHandle& handle)
    {
        const svc::JobRecord& record = handle.record();
        job.latency = job.lateness + record.wallSeconds;
        job.queueWait = record.queueWaitSeconds;
        job.exec = record.execSeconds;
        job.cacheHits = record.cacheHits;
        job.cacheMisses = record.cacheMisses;
        job.ok = record.status == svc::JobStatus::Completed &&
                 record.shotsCompleted == job.arrival.shots();
        if (!job.ok)
            return;
        const Counts& counts = handle.get();
        if (job.arrival.cls != JobClass::Cold)
            job.pst = pst(counts, setup_.hot[job.arrival.hot].accepted);
        if (job.arrival.index % kReplayEvery == 0)
            kept.push_back({job.arrival, counts});
    }

    const Setup& setup_;
    std::vector<JobSample>& jobs_;
    StealLog& steal_;
    std::mutex mutex_;
    std::condition_variable ready_;
    std::vector<std::pair<std::uint64_t, svc::JobHandle>> queue_;
    bool closed_ = false;
    std::exception_ptr failure_;
    std::thread thread_; // Last: starts once the members it uses exist.
};

/**
 * The generator: send @p arrivals on schedule from this thread, hand
 * each admitted job to a Collector, and wait for every job to finish.
 */
LadderRun
runLadder(Setup& setup, const std::vector<Arrival>& arrivals,
          std::size_t steps)
{
    svc::JobService& service = *setup.service;
    LadderRun run;
    run.jobs.resize(arrivals.size());
    run.depths.reserve(arrivals.size());
    run.backlogEnd.assign(steps, 0.0);
    // One reading before the ladder, so that even a ladder without
    // gaps in its schedule has one.
    run.speeds.push_back(hostSpeed());
    StealLog steal;
    Collector collector(setup, run.jobs, steal);

    const auto start = steal.origin();
    auto free = start; // When the previous submit() returned.
    auto lastSpeed = start - kSpeedEvery;
    std::uint32_t step = 0;
    for (const Arrival& a : arrivals) {
        if (a.step != step) {
            run.backlogEnd[step] = static_cast<double>(service.queueDepth());
            if (step == kHeadlineStep)
                run.peakRssMb = peakRssMb();
            step = a.step;
        }
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(a.due));
        // Spin rather than sleep: waking a halted virtual CPU can
        // take longer than the whole lateness budget. The generator
        // so keeps a CPU busy, but is not pinned to it.
        for (auto now = Clock::now(); now < due; now = Clock::now()) {
            if (now - lastSpeed >= kSpeedEvery && due - now >= kSpeedGap) {
                run.speeds.push_back(hostSpeed());
                lastSpeed = now;
            }
        }
        const auto sent = Clock::now();
        run.depths.push_back(
            {a.step, a.due, static_cast<double>(service.queueDepth())});

        JobSample& job = run.jobs[a.index];
        job.arrival = a;
        job.lateness = seconds(due, sent);
        job.ownLateness = seconds(std::max(due, free), sent);
        svc::JobOptions options;
        options.tenant = "tenant-" + std::to_string(a.tenant);
        options.priority = a.cls == JobClass::Interactive
                               ? svc::JobPriority::Interactive
                           : a.cls == JobClass::Batch
                               ? svc::JobPriority::Batch
                               : svc::JobPriority::Background;
        options.jobKey = a.index;
        svc::JobHandle handle;
        try {
            const auto before = Clock::now();
            handle = a.cls == JobClass::Cold
                         ? service.submit(kColdMachine, coldCircuit(a),
                                          a.shots(), options)
                         : service.submit(setup.hot[a.hot].machine,
                                          setup.hot[a.hot].circuit,
                                          a.shots(), options);
            job.submit = seconds(before, Clock::now());
            job.admitted = true;
        } catch (const BudgetExhausted&) {
            // Rejected at admission: attempted, failed, no latency.
        }
        free = Clock::now();
        if (job.admitted)
            collector.push(a.index, std::move(handle));
    }
    if (!arrivals.empty())
        run.backlogEnd[step] = static_cast<double>(service.queueDepth());
    collector.finish();
    steal.sample(true);
    run.seconds = seconds(start, Clock::now());
    run.kept = std::move(collector.kept);
    for (JobSample& job : run.jobs) {
        job.clean =
            job.ok && steal.clean(job.arrival.due - kBacklogSeconds,
                                  job.arrival.due + job.latency +
                                      kStealSettleSeconds);
    }
    run.stealShare = steal.stealShare();
    run.cleanSeconds = steal.cleanSeconds();
    return run;
}

/** Serial replay of every kept job, as in tests/test_job_service.cc:
 *  the job's stream, batch i on substream i, merged in order. */
void
checkReplay(const Setup& setup, const LadderRun& run, std::uint64_t seed,
            Report& report)
{
    std::vector<std::unique_ptr<TrajectorySimulator>> prototypes;
    for (const NoiseModel& model : setup.models)
        prototypes.push_back(
            std::make_unique<TrajectorySimulator>(model, seed));
    const std::size_t batchSize = svc::ServiceOptions{}.defaultBatchSize;
    std::size_t mismatches = 0;
    for (const Kept& kept : run.kept) {
        const Arrival& a = kept.arrival;
        const Circuit circuit = a.cls == JobClass::Cold
                                    ? coldCircuit(a)
                                    : setup.hot[a.hot].circuit;
        const TrajectorySimulator& prototype =
            *prototypes[setup.machineIndex(machineOf(setup, a))];
        const Rng job = svc::JobService::jobStream(
            seed, "tenant-" + std::to_string(a.tenant), a.index);
        Counts expected(circuit.numClbits());
        const ShotPlan plan(a.shots(), batchSize);
        for (const ShotBatch& batch : plan.batches()) {
            Rng rng = ShotPlan::substream(job, batch.index);
            expected.merge(prototype.run(circuit, batch.shots, rng));
        }
        if (!sameCounts(expected, kept.counts))
            ++mismatches;
    }
    report.metrics.set("check.replayed_jobs",
                       static_cast<double>(run.kept.size()), "count");
    if (run.kept.empty())
        report.fail("replay: no admitted job was kept for replay");
    if (mismatches > 0)
        report.fail("replay: " + std::to_string(mismatches) + " of " +
                    std::to_string(run.kept.size()) +
                    " jobs differ from their serial replay");
}

/**
 * The host's speed over a ladder: the median of its readings. Scaling
 * each job by the readings around its own due time instead spread the
 * middle step's p50 over twenty seeds twice as far (6.0% against 2.8%
 * interquartile range over median) and its p99 by 11% against 7.8%.
 */
double
ladderSpeed(const LadderRun& run)
{
    return median(run.speeds);
}

/** Interactive latencies of step @p step in arrival order, cut into
 *  blocks: of the clean jobs in reference seconds, or with @p wall of
 *  every completed one in wall seconds. */
BlockLatencies
interactiveLatencies(const LadderRun& run, std::uint32_t step,
                     bool wall = false)
{
    const double speed = wall ? 1.0 : ladderSpeed(run);
    BlockLatencies out;
    for (const JobSample& job : run.jobs) {
        if ((wall ? job.ok : job.clean) && job.arrival.step == step &&
            job.arrival.cls == JobClass::Interactive) {
            out.add(job.latency * speed);
            out.cut();
        }
    }
    return out;
}

/** Is the queue still growing as step @p step ends? */
bool
growing(const LadderRun& run, std::uint32_t step, double ladder_seconds)
{
    const double begin = stepBegin(step, ladder_seconds);
    const double length = stepBegin(step + 1, ladder_seconds) - begin;
    double first = 0.0, firstN = 0.0, last = 0.0, lastN = 0.0;
    for (const DepthSample& d : run.depths) {
        if (d.step != step)
            continue;
        const double phase = (d.t - begin) / length;
        if (phase < 1.0 / 3.0) {
            first += d.depth;
            firstN += 1.0;
        } else if (phase >= 2.0 / 3.0) {
            last += d.depth;
            lastN += 1.0;
        }
    }
    if (firstN == 0.0 || lastN == 0.0)
        return false;
    const double limit = 2.0 * (first / firstN) + kGrowthSlackBatches;
    return last / lastN > limit && run.backlogEnd[step] > limit;
}

/** p99 of the generator's own lateness on step @p step, seconds, over
 *  the clean jobs: lateness under steal is the host's. */
double
ownLatenessP99(const LadderRun& run, std::uint32_t step)
{
    std::vector<double> own;
    for (const JobSample& job : run.jobs) {
        if (job.clean && job.arrival.step == step)
            own.push_back(job.ownLateness);
    }
    return percentile(own, 0.99);
}

/** Share of the headline step's interactive jobs that ran clear of
 *  steal. */
double
cleanShare(const LadderRun& run)
{
    double all = 0.0, clean = 0.0;
    for (const JobSample& job : run.jobs) {
        if (job.arrival.step == kHeadlineStep &&
            job.arrival.cls == JobClass::Interactive) {
            all += 1.0;
            clean += job.clean ? 1.0 : 0.0;
        }
    }
    return all > 0.0 ? clean / all : 0.0;
}

/** Why @p run did not offer its scheduled load, or "" if it did. */
std::string
lateGenerator(const LadderRun& run)
{
    const double limitMs = kLatenessValidity * kSloMs;
    for (std::uint32_t s = 0; s < kLadderRates.size(); ++s) {
        const double p99Ms = ownLatenessP99(run, s) * 1e3;
        if (p99Ms > limitMs)
            return std::string("the generator's own p99 lateness on the ") +
                   kStepNames[s] + " step, " + std::to_string(p99Ms) +
                   " ms, exceeds " + std::to_string(limitMs) + " ms";
    }
    return "";
}

/** End-to-end and service/loadgen metrics of one ladder. */
void
ladderMetrics(const LadderRun& run, double ladder_seconds, Report& report)
{
    MetricTable& m = report.metrics;
    const std::size_t steps = kLadderRates.size();
    std::vector<std::uint64_t> failedByStep(steps, 0);
    std::vector<std::uint64_t> rejectedByStep(steps, 0);
    std::uint64_t completed = 0;
    std::vector<double> pst;
    for (const JobSample& job : run.jobs) {
        ++report.attempted;
        if (!job.admitted)
            ++rejectedByStep[job.arrival.step];
        if (!job.ok) {
            ++report.failed;
            ++failedByStep[job.arrival.step];
            continue;
        }
        ++completed;
        if (job.arrival.cls != JobClass::Cold)
            pst.push_back(job.pst);
    }

    // Throughput follows the offered load below saturation, so it is
    // taken over every job.
    m.set("results_per_s", static_cast<double>(completed) / run.seconds,
          "1/s");
    setLatencyMetrics(interactiveLatencies(run, kHeadlineStep), m);
    setLatencyMetrics(interactiveLatencies(run, kHeadlineStep, true), m,
                      ".wall");
    m.set("host.speed", ladderSpeed(run), "ratio");
    m.set("host.steal_share", run.stealShare, "fraction");
    m.set("bench.clean_share", run.cleanSeconds / run.seconds, "fraction");
    m.set("pst_mean", mean(pst), "fraction");
    m.set("failed_frac",
          static_cast<double>(report.failed) /
              static_cast<double>(std::max<std::uint64_t>(1,
                                                          report.attempted)),
          "fraction");

    double sloRate = 0.0;
    for (std::uint32_t s = 0; s < steps; ++s) {
        const std::string step = kStepNames[s];
        const BlockLatencies clean = interactiveLatencies(run, s);
        const double p99 = clean.percentile(0.99);
        std::vector<double> lateness;
        double depthMax = 0.0;
        for (const JobSample& job : run.jobs) {
            if (job.arrival.step == s)
                lateness.push_back(job.lateness);
        }
        for (const DepthSample& d : run.depths) {
            if (d.step == s)
                depthMax = std::max(depthMax, d.depth);
        }
        const bool grows = growing(run, s, ladder_seconds);
        m.set("latency_p99_ms." + step, p99 * 1e3, "ms");
        m.set("latency_p99_ms.wall." + step,
              interactiveLatencies(run, s, true).percentile(0.99) * 1e3,
              "ms");
        m.set("loadgen.lateness_p99_ms." + step,
              percentile(lateness, 0.99) * 1e3, "ms");
        m.set("loadgen.own_lateness_p99_ms." + step,
              ownLatenessP99(run, s) * 1e3, "ms");
        m.set("loadgen.backlog_end." + step, run.backlogEnd[s], "batches");
        m.set("service.queue_depth_max." + step, depthMax, "batches");
        m.set("service.rejected." + step,
              static_cast<double>(rejectedByStep[s]), "count");
        m.set("latency.samples." + step, static_cast<double>(clean.count()),
              "count");
        // A step with no job clear of steal has no p99 to meet the SLO.
        if (clean.count() > 0 && p99 * 1e3 <= kSloMs &&
            failedByStep[s] == 0 && !grows)
            sloRate = kLadderRates[s];
    }
    m.set("slo_rate_jobs_per_s", sloRate, "jobs/s");

    std::vector<double> submit;
    std::vector<double> interactiveWait;
    std::vector<double> coldLatency;
    std::array<std::vector<double>, 3> execByClass;
    std::array<std::uint64_t, 3> jobsByClass{};
    for (const JobSample& job : run.jobs) {
        const auto cls = static_cast<std::size_t>(job.arrival.cls);
        ++jobsByClass[cls];
        if (!job.ok)
            continue;
        submit.push_back(job.submit);
        execByClass[cls].push_back(job.exec);
        if (job.arrival.cls == JobClass::Interactive)
            interactiveWait.push_back(job.queueWait);
        if (job.arrival.cls == JobClass::Cold)
            coldLatency.push_back(job.latency);
    }
    // Cold jobs pay their own lowering in submit(): the lowering
    // layer's end-to-end face in the service.
    m.set("latency_p99_ms.cold", percentile(coldLatency, 0.99) * 1e3,
          "ms");
    m.set("service.submit_us_p50", percentile(submit, 0.5) * 1e6, "us");
    m.set("service.submit_us_p99", percentile(submit, 0.99) * 1e6, "us");
    m.set("service.queue_wait_ms_p50.interactive",
          percentile(interactiveWait, 0.5) * 1e3, "ms");
    m.set("service.queue_wait_ms_p99.interactive",
          percentile(interactiveWait, 0.99) * 1e3, "ms");
    for (std::size_t c = 0; c < kClassNames.size(); ++c) {
        m.set(std::string("service.exec_ms_p50.") + kClassNames[c],
              percentile(execByClass[c], 0.5) * 1e3, "ms");
        m.set(std::string("jobs.") + kClassNames[c],
              static_cast<double>(jobsByClass[c]), "count");
    }
}

/** Per-layer metrics of a ladder: cache, queueing, runtime, and the
 *  noise layer replayed on the hot set and a sample of cold jobs. */
void
layerMetrics(const Setup& setup, const LadderRun& run, MetricTable& m)
{
    constexpr std::size_t kNone = SIZE_MAX;
    const NoiseModel* coldModel =
        &setup.models[setup.machineIndex(kColdMachine)];
    std::vector<FanoutCircuit> circuits;
    std::vector<std::size_t> hotSlot(setup.hot.size(), kNone);
    std::vector<std::pair<std::uint64_t, std::size_t>> coldSlot;
    auto add = [&](Circuit circuit, const NoiseModel* model) {
        circuits.emplace_back();
        circuits.back().circuit = std::move(circuit);
        circuits.back().model = model;
        return circuits.size() - 1;
    };
    auto slotOf = [&](const Arrival& a) {
        if (a.cls != JobClass::Cold) {
            if (hotSlot[a.hot] == kNone) {
                const HotCircuit& hot = setup.hot[a.hot];
                hotSlot[a.hot] = add(
                    hot.circuit,
                    &setup.models[setup.machineIndex(hot.machine)]);
            }
            return hotSlot[a.hot];
        }
        for (const auto& [key, slot] : coldSlot) {
            if (key == a.coldKey())
                return slot;
        }
        if (coldSlot.size() == kProbeColdCircuits)
            return kNone;
        coldSlot.emplace_back(a.coldKey(), add(coldCircuit(a), coldModel));
        return coldSlot.back().second;
    };

    double hotHits = 0.0, hotLookups = 0.0;
    double coldMisses = 0.0, coldLookups = 0.0;
    double wait = 0.0, wall = 0.0, exec = 0.0;
    std::vector<double> execs;
    for (const JobSample& job : run.jobs) {
        if (!job.ok)
            continue;
        const Arrival& a = job.arrival;
        const double lookups =
            static_cast<double>(job.cacheHits + job.cacheMisses);
        if (a.cls == JobClass::Cold) {
            coldMisses += static_cast<double>(job.cacheMisses);
            coldLookups += lookups;
        } else {
            hotHits += static_cast<double>(job.cacheHits);
            hotLookups += lookups;
        }
        const std::size_t slot = slotOf(a);
        if (slot != kNone) {
            ++circuits[slot].runs;
            circuits[slot].shots += a.shots();
        }
        wait += job.queueWait;
        wall += job.latency;
        exec += job.exec;
        execs.push_back(job.exec);
    }
    const std::vector<ReplayCost> costs = probeNoise(circuits, m);

    // Single-thread work of every completed job: hot circuits at
    // their own cost, cold jobs at the mean of the sampled ones. A job
    // lowers its circuit only on a cache miss, in submit().
    ReplayCost cold;
    for (const auto& [key, slot] : coldSlot) {
        cold.lowerSeconds += costs[slot].lowerSeconds;
        cold.execSecondsPerShot += costs[slot].execSecondsPerShot;
        cold.evolveSecondsPerTraj += costs[slot].evolveSecondsPerTraj;
    }
    if (!coldSlot.empty()) {
        const auto n = static_cast<double>(coldSlot.size());
        cold.lowerSeconds /= n;
        cold.execSecondsPerShot /= n;
        cold.evolveSecondsPerTraj /= n;
    }
    NoiseWork work;
    for (const JobSample& job : run.jobs) {
        if (!job.ok)
            continue;
        const Arrival& a = job.arrival;
        work.add(a.cls == JobClass::Cold ? cold : costs[hotSlot[a.hot]],
                 a.shots(), job.cacheMisses > 0);
    }
    // The service's layer shares are shares of worker capacity.
    const double capacity = kWorkers * run.seconds;

    m.set("transpile.us_p50",
          percentile(setup.transpileSeconds, 0.5) * 1e6, "us");
    // Jobs arrive transpiled: transpiling is set-up work here.
    m.set("transpile.share", 0.0, "fraction");
    // One job is one backend fan-out; no policy runs in the service.
    m.set("runtime.fanouts_per_result", 1.0, "count");
    for (const char* policy :
         {"Baseline", "SIM", "AIM", "Rebalance", "BFA"})
        m.set(std::string("runtime.fanouts_per_result.") + policy, 0.0,
              "count");
    m.set("runtime.fanout_ms_p50", percentile(execs, 0.5) * 1e3, "ms");
    m.set("noise.lower_share", work.lower / capacity, "fraction");
    m.set("noise.evolve_share", work.evolve / capacity, "fraction");
    m.set("noise.sample_readout_share", work.sampleReadout / capacity,
          "fraction");
    m.set("runtime.overhead_share",
          (exec - work.exec() / kWorkers) / wall, "fraction");
    m.set("runtime.parallel_efficiency", work.exec() / capacity,
          "fraction");
    m.set("mitigation.self_share", 0.0, "fraction");
    m.set("service.cache_hit_rate.hot",
          hotLookups > 0.0 ? hotHits / hotLookups : 0.0, "fraction");
    m.set("service.cache_miss_rate.cold",
          coldLookups > 0.0 ? coldMisses / coldLookups : 0.0,
          "fraction");
    m.set("service.cache_misses.cold", coldMisses, "count");
    m.set("service.queue_wait_share", wait / wall, "fraction");
}

} // namespace

Report
runOpenLoop(const RunConfig& config)
{
    telemetry::setEnabled(true);
    Report report;

    telemetry::JsonValue& k = report.constants;
    telemetry::JsonValue rates = telemetry::JsonValue::array();
    telemetry::JsonValue shares = telemetry::JsonValue::array();
    for (std::size_t s = 0; s < kLadderRates.size(); ++s) {
        rates.push(telemetry::JsonValue(kLadderRates[s]));
        shares.push(telemetry::JsonValue(kStepShares[s]));
    }
    k["workers"] = telemetry::JsonValue(kWorkers);
    k["tenants"] = telemetry::JsonValue(kTenants);
    k["ladder_jobs_per_s"] = std::move(rates);
    k["ladder_step_shares"] = std::move(shares);
    k["slo_ms"] = telemetry::JsonValue(kSloMs);
    k["max_queued_batches"] =
        telemetry::JsonValue(static_cast<std::uint64_t>(kQueuedBatches));
    k["shares"] = telemetry::JsonValue(
        "interactive 0.70 / batch 0.25 / cold 0.05");
    k["shots"] = telemetry::JsonValue(
        "interactive 512 / batch 8192 / cold 256");
    k["replay_every"] = telemetry::JsonValue(kReplayEvery);
    k["setup_repeats"] =
        telemetry::JsonValue(static_cast<std::uint64_t>(kSetupRepeats));

    SetupTimer setups;
    const auto timedSetUp = [&] {
        return setups.time([&] { return setUp(config.seed); });
    };
    std::unique_ptr<Setup> setup = timedSetUp();

    const std::vector<Arrival> arrivals =
        schedule(config.seed, config.seconds, setup->hot.size());
    // The last try is kept if it offered its load, however few of its
    // jobs ran clear of steal.
    LadderRun run;
    int tries = 1;
    for (;; ++tries) {
        run = runLadder(*setup, arrivals, kLadderRates.size());
        const std::string late = lateGenerator(run);
        const double clean = cleanShare(run);
        if (late.empty() && (clean >= kMinCleanShare || tries == kLadderTries))
            break;
        if (tries == kLadderTries)
            throw std::runtime_error("no ladder offered its load in " +
                                     std::to_string(tries) +
                                     " tries; the last: " + late);
        const std::string why =
            late.empty() ? "kept " + std::to_string(clean) +
                               " of its headline jobs clear of steal"
                         : "did not offer its load (" + late + ")";
        std::fprintf(stderr, "invertq_e2e: ladder %d %s; running it again\n",
                     tries, why.c_str());
        setup.reset();
        setup = setUp(config.seed);
    }
    report.metrics.set("peak_rss_mb", run.peakRssMb, "MB");
    report.metrics.set("peak_rss_mb.all", peakRssMb(), "MB");
    if (!config.trace) {
        // After the ladder and its memory readings, so that none sees
        // a second service.
        while (setups.count() < kSetupRepeats)
            timedSetUp();
    }
    report.metrics.set("setup_s", setups.median(), "s");
    report.metrics.set("loadgen.ladder_tries", tries, "count");
    report.metrics.set("bench.headline_clean_share", cleanShare(run),
                       "fraction");
    ladderMetrics(run, config.seconds, report);
    if (config.trace)
        layerMetrics(*setup, run, report.metrics);

    const svc::ServiceSummary summary = setup->service->summary();
    report.metrics.set("service.retries",
                       static_cast<double>(summary.retries), "count");
    report.metrics.set("service.dropped_batches",
                       static_cast<double>(summary.droppedBatches),
                       "count");
    report.metrics.set("service.rejected",
                       static_cast<double>(summary.rejected), "count");
    std::uint64_t broken = 0;
    for (const JobSample& job : run.jobs)
        broken += job.admitted && !job.ok;
    if (broken > 0)
        report.fail(std::to_string(broken) +
                    " admitted jobs failed or came back short");
    checkReplay(*setup, run, config.seed, report);
    return report;
}

} // namespace e2e
