/**
 * @file
 * Noise-layer replay probes. After the timed phase, each distinct
 * circuit a workload sent to a backend is lowered, executed and
 * evolved on the calling thread, so the noise layer's costs are
 * measured on exactly the workload's circuits without instrumenting
 * the simulator.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "e2e.hh"
#include "noise/noise_program.hh"
#include "noise/trajectory.hh"
#include "qsim/statevector.hh"

namespace e2e
{

namespace
{

constexpr int kLowerRepeats = 5;
/** Execution probes repeat (up to this many times) only while they
 *  have timed less than kExecSeconds. */
constexpr std::size_t kExecRepeats = 3;
constexpr double kExecSeconds = 5e-3;
/** Evolve probes run until this much time has been timed. */
constexpr double kEvolveSeconds = 2e-3;
constexpr std::uint64_t kEvolveMaxTrajectories = 4096;

/** Median of @p values where each value carries a weight. */
double
weightedMedian(std::vector<std::pair<double, double>> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double total = 0.0;
    for (const auto& [value, weight] : values)
        total += weight;
    double seen = 0.0;
    for (const auto& [value, weight] : values) {
        seen += weight;
        if (seen >= 0.5 * total)
            return value;
    }
    return values.back().first;
}

ReplayCost
probeOne(const FanoutCircuit& fanout, std::uint64_t stream)
{
    using namespace qem;
    const TrajectoryOptions options;
    const TrajectorySimulator simulator(*fanout.model, 1, options);
    ReplayCost cost;

    std::shared_ptr<const ShardedBackend::CompiledRun> compiled;
    std::vector<double> lowers;
    for (int i = 0; i < kLowerRepeats; ++i) {
        const auto start = Clock::now();
        compiled = simulator.compile(fanout.circuit);
        lowers.push_back(seconds(start, Clock::now()));
    }
    cost.lowerSeconds = median(lowers);

    const std::uint64_t runShots =
        std::max<std::uint64_t>(1, fanout.shots / fanout.runs);
    Rng rng(stream);
    std::vector<double> execs;
    double timed = 0.0;
    while (execs.size() < kExecRepeats && timed < kExecSeconds) {
        const auto start = Clock::now();
        const Counts counts = compiled->run(runShots, rng);
        const double elapsed = seconds(start, Clock::now());
        timed += elapsed;
        execs.push_back(elapsed / static_cast<double>(counts.total()));
    }
    cost.execSecondsPerShot = median(execs);

    const NoiseProgram program =
        NoiseProgram::lower(fanout.circuit, *fanout.model, options);
    StateVector state(program.compactQubits());
    std::uint64_t trajectories = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
        for (int i = 0; i < 8; ++i) {
            state.resetTo(0);
            program.evolve(state, rng);
        }
        trajectories += 8;
        elapsed = seconds(start, Clock::now());
    } while (elapsed < kEvolveSeconds &&
             trajectories < kEvolveMaxTrajectories);
    cost.evolveSecondsPerTraj =
        elapsed / static_cast<double>(trajectories);
    cost.stochastic = program.stochastic();
    cost.shotsPerTrajectory = options.shotsPerTrajectory;
    return cost;
}

} // namespace

double
ReplayCost::trajectories(std::uint64_t shots) const
{
    // A stochastic program draws a trajectory per shotsPerTrajectory
    // shots; a deterministic one evolves at most once per run.
    if (!stochastic)
        return 1.0;
    return std::ceil(static_cast<double>(shots) /
                     static_cast<double>(shotsPerTrajectory));
}

double
ReplayCost::evolveSeconds(std::uint64_t shots) const
{
    return std::min(execSeconds(shots),
                    trajectories(shots) * evolveSecondsPerTraj);
}

void
NoiseWork::add(const ReplayCost& cost, std::uint64_t shots, bool lowered)
{
    if (lowered)
        lower += cost.lowerSeconds;
    const double evolved = cost.evolveSeconds(shots);
    evolve += evolved;
    sampleReadout += cost.execSeconds(shots) - evolved;
}

std::vector<ReplayCost>
probeNoise(const std::vector<FanoutCircuit>& circuits, MetricTable& out)
{
    std::vector<ReplayCost> costs;
    costs.reserve(circuits.size());
    std::vector<std::pair<double, double>> lowerByRun;
    double shots = 0.0;
    double execSeconds = 0.0;
    double trajectories = 0.0;
    double evolveSeconds = 0.0;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        const FanoutCircuit& c = circuits[i];
        const ReplayCost cost = probeOne(c, 0x9e3779b97f4a7c15ULL + i);
        costs.push_back(cost);
        const double runs = static_cast<double>(c.runs);
        const std::uint64_t runShots = c.shots / c.runs;
        lowerByRun.emplace_back(cost.lowerSeconds, runs);
        shots += static_cast<double>(c.shots);
        execSeconds += cost.execSeconds(c.shots);
        trajectories += cost.trajectories(runShots) * runs;
        evolveSeconds +=
            cost.trajectories(runShots) * runs * cost.evolveSecondsPerTraj;
    }
    out.set("noise.lower_us_p50", weightedMedian(lowerByRun) * 1e6, "us");
    out.set("noise.execute_ns_per_shot",
            shots > 0.0 ? execSeconds / shots * 1e9 : 0.0, "ns");
    out.set("noise.evolve_ns_per_traj",
            trajectories > 0.0 ? evolveSeconds / trajectories * 1e9
                               : 0.0,
            "ns");
    out.set("noise.traj_per_shot",
            shots > 0.0 ? trajectories / shots : 0.0, "traj/shot");
    out.set("noise.distinct_circuits",
            static_cast<double>(circuits.size()), "count");
    return costs;
}

} // namespace e2e
