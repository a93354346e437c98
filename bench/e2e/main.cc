/**
 * @file
 * invertq_e2e: the end-to-end mitigated-result benchmark.
 *
 *   invertq_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *
 * Workloads: q5-mix-t4, q5-mix-serial, q14-fullnoise-t4 and
 * svc-open-loop (see README.md for what each stresses). A run prints
 * every metric as `metric <name> <value> <unit>`, then its failed
 * correctness checks, writes BENCH_e2e_<workload>.json (and, when
 * traced, TRACE_e2e_<workload>.json) to INVERTQ_BENCH_DIR, and ends
 * with one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * whose metrics are the end-to-end set, or with --trace 1 the
 * per-layer set. Exit codes: 0 all checks passed, 1 a check failed
 * or the run threw (a service run whose generator never kept its
 * schedule prints no result), 2 bad usage or fewer than 4 CPUs.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.hh"
#include "harness/bench_io.hh"

using namespace e2e;

namespace
{

/** Thread counts are fixed constants sized for this many CPUs; on
 *  fewer the benchmark would measure the OS scheduler. */
constexpr unsigned kRequiredCpus = 4;

const char* const kWorkloads[] = {"q5-mix-t4", "q5-mix-serial",
                                  "q14-fullnoise-t4", "svc-open-loop"};

/** The end_to_end names of BENCHMARK.json (E2eBenchSmoke checks). */
const std::vector<std::string> kEndToEnd = {
    "setup_s",  "results_per_s", "latency_p50_ms",
    "latency_p99_ms", "pst_mean", "peak_rss_mb"};

/** The per_layer names of BENCHMARK.json (E2eBenchSmoke checks). */
const std::vector<std::string> kPerLayer = {
    "transpile.us_p50",
    "transpile.share",
    "noise.lower_us_p50",
    "noise.lower_share",
    "noise.execute_ns_per_shot",
    "noise.evolve_ns_per_traj",
    "noise.traj_per_shot",
    "noise.evolve_share",
    "noise.sample_readout_share",
    "runtime.fanouts_per_result",
    "runtime.fanouts_per_result.Baseline",
    "runtime.fanouts_per_result.SIM",
    "runtime.fanouts_per_result.AIM",
    "runtime.fanouts_per_result.Rebalance",
    "runtime.fanouts_per_result.BFA",
    "runtime.fanout_ms_p50",
    "runtime.overhead_share",
    "runtime.parallel_efficiency",
    "mitigation.self_share",
    "service.cache_hit_rate.hot",
    "service.cache_miss_rate.cold",
    "service.queue_wait_share",
};

int
usage(const std::string& error)
{
    std::fprintf(stderr,
                 "invertq_e2e: %s\n"
                 "usage: invertq_e2e --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "workloads: q5-mix-t4 q5-mix-serial q14-fullnoise-t4 "
                 "svc-open-loop\n",
                 error.c_str());
    return 2;
}

/** Parse argv into @p config; returns an error message or "". */
std::string
parse(int argc, char** argv, RunConfig& config)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return "missing value for " + flag;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                config.workload = value;
            } else if (flag == "--seed") {
                config.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                config.seconds = std::stod(value);
                if (!(config.seconds > 0.0))
                    return "--seconds must be positive";
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return "--trace takes 0 or 1";
                config.trace = value == "1";
            } else {
                return "unknown flag " + flag;
            }
        } catch (const std::exception&) {
            return "bad value for " + flag + ": " + value;
        }
    }
    for (const char* name : kWorkloads) {
        if (config.workload == name)
            return "";
    }
    return config.workload.empty() ? "--workload is required"
                                   : "unknown workload " + config.workload;
}

telemetry::JsonValue
metricJson(const MetricTable::Entry& entry)
{
    telemetry::JsonValue value = telemetry::JsonValue::object();
    value["value"] = telemetry::JsonValue(entry.value);
    value["unit"] = telemetry::JsonValue(entry.unit);
    return value;
}

/** The BENCH_e2e_<workload>.json payload: host stamp, run settings
 *  and workload constants, every metric, and the checks. */
telemetry::JsonValue
benchPayload(const RunConfig& config, const Report& report)
{
    using telemetry::JsonValue;
    JsonValue run = JsonValue::object();
    run["workload"] = JsonValue(config.workload);
    run["seed"] = JsonValue(config.seed);
    run["seconds"] = JsonValue(config.seconds);
    run["trace"] = JsonValue(config.trace);
    run["constants"] = report.constants;
    JsonValue metrics = JsonValue::object();
    for (const MetricTable::Entry& entry : report.metrics.entries())
        metrics[entry.name] = metricJson(entry);
    JsonValue failures = JsonValue::array();
    for (const std::string& failure : report.failures)
        failures.push(JsonValue(failure));

    JsonValue payload = JsonValue::object();
    payload["host"] = hostStamp();
    payload["run"] = std::move(run);
    payload["metrics"] = std::move(metrics);
    payload["attempted"] = JsonValue(report.attempted);
    payload["failed"] = JsonValue(report.failed);
    payload["correct"] = JsonValue(report.failures.empty());
    payload["failures"] = std::move(failures);
    return payload;
}

void
writeTrace(const std::string& workload, const telemetry::JsonValue& trace)
{
    const std::string bench = qem::benchJsonPath("e2e_" + workload);
    if (bench.empty())
        return;
    const std::filesystem::path path =
        std::filesystem::path(bench).parent_path() /
        ("TRACE_e2e_" + workload + ".json");
    std::ofstream out(path);
    out << trace.dump(0) << "\n";
    if (!out)
        std::fprintf(stderr, "invertq_e2e: could not write %s\n",
                     path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    RunConfig config;
    const std::string error = parse(argc, argv, config);
    if (!error.empty())
        return usage(error);
    const unsigned cpus = availableCpus();
    if (cpus < kRequiredCpus) {
        std::fprintf(stderr,
                     "invertq_e2e: needs %u CPUs, this host offers %u; "
                     "its fixed thread counts would measure the "
                     "scheduler\n",
                     kRequiredCpus, cpus);
        return 2;
    }

    Report report;
    try {
        report = isClosedLoop(config.workload) ? runClosedLoop(config)
                                               : runOpenLoop(config);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "invertq_e2e: %s\n", e.what());
        return 1;
    }
    for (const MetricTable::Entry& entry : report.metrics.entries()) {
        if (!std::isfinite(entry.value))
            report.fail("metric " + entry.name + " is not finite");
    }
    const std::vector<std::string>& headline =
        config.trace ? kPerLayer : kEndToEnd;
    telemetry::JsonValue metrics = telemetry::JsonValue::object();
    for (const std::string& name : headline) {
        const MetricTable::Entry* entry = report.metrics.find(name);
        if (entry == nullptr) {
            std::fprintf(stderr, "invertq_e2e: %s was not measured\n",
                         name.c_str());
            return 1;
        }
        metrics[name] = metricJson(*entry);
    }

    for (const MetricTable::Entry& entry : report.metrics.entries())
        std::printf("metric %-40s %14.6g %s\n", entry.name.c_str(),
                    entry.value, entry.unit.c_str());
    for (const std::string& failure : report.failures)
        std::printf("check FAILED: %s\n", failure.c_str());
    const std::string path = qem::writeBenchJson(
        "e2e_" + config.workload, benchPayload(config, report));
    if (!path.empty())
        std::printf("wrote %s\n", path.c_str());
    if (!report.trace.isNull())
        writeTrace(config.workload, report.trace);

    telemetry::JsonValue line = telemetry::JsonValue::object();
    line["correct"] = telemetry::JsonValue(report.failures.empty());
    line["attempted"] = telemetry::JsonValue(report.attempted);
    line["failed"] = telemetry::JsonValue(report.failed);
    line["metrics"] = std::move(metrics);
    std::printf("%s\n", line.dump(0).c_str());
    return report.failures.empty() ? 0 : 1;
}
