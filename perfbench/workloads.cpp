/**
 * @file
 * The three benchmark workloads. Each is a closed loop: a fixed pass
 * of work derived from the seed runs again and again, every call
 * waiting for the previous one. A run makes at least two passes and
 * starts another only while it is expected to end within --seconds.
 * Every pass must reproduce the same sim_digest.
 *
 *   evolve       core::Harpocrates loops (IntRegFile preset, the
 *                Table I shape); a step is one generation. After the
 *                last pass, with timing stopped, one SFI campaign
 *                grades each loop's final best program.
 *   sfi_storage  default transient campaigns on the six storage
 *                targets for every input program; a step is one
 *                campaign.
 *   sfi_gate     default stuck-at campaigns on the four FU targets for
 *                every input program; a step is one campaign.
 *
 * The golden-run cache is emptied before every pass, so each program's
 * first campaign records its golden run and the others hit it, as in a
 * fresh user run.
 */

#include <sys/resource.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "baselines/workloads.hh"
#include "bench.hh"
#include "core/harpocrates.hh"
#include "faultsim/campaign.hh"
#include "telemetry/metrics.hh"

namespace perfbench
{

using harpo::coverage::TargetStructure;
using harpo::faultsim::CampaignConfig;
using harpo::faultsim::CampaignResult;
using harpo::faultsim::FaultCampaign;

namespace
{

/** Set-ups measured before the passes and after each pass; setup_s is
 *  the median of all of them. */
constexpr unsigned kSetupRepsPerRound = 3;

/** Sizes of the inputs and of one pass. The tiny shape only serves the
 *  smoke test: it proves every metric is printed, not how fast
 *  anything is. */
struct Shape
{
    unsigned evolvePrograms;     ///< probe inputs of evolve, per region
    unsigned storagePrograms;    ///< sfi_storage inputs, per region
    unsigned gatePrograms;       ///< sfi_gate inputs, per region
    unsigned evolveInstructions;  ///< per program (evolve)
    unsigned storageInstructions; ///< per program (sfi_storage)
    unsigned gateInstructions;    ///< per program (sfi_gate)
    unsigned loops;              ///< evolve loops per pass
    unsigned generations;        ///< evolve loop length
    unsigned population;         ///< evolve population (0: preset's)
    unsigned finalInjections;    ///< evolve's closing campaigns
    unsigned campaignInjections; ///< sfi_* (0: the library default)
    bool baselines;              ///< add baseline kernels (sfi_storage)
};

Shape
shapeFor(bool tiny)
{
    if (tiny)
        return {1, 1, 1, 200, 100, 100, 1, 3, 6, 40, 40, false};
    return {3, 12, 24, 2000, 1000, 250, 4, 25, 0, 2000, 0, true};
}

/** Campaign targets of an sfi workload. */
const std::vector<TargetStructure> &
targetsOf(const std::string &workload)
{
    static const std::vector<TargetStructure> storage = {
        TargetStructure::IntRegFile, TargetStructure::L1DCache,
        TargetStructure::Rob,        TargetStructure::RenameMap,
        TargetStructure::StoreQueue, TargetStructure::BranchPredictor};
    static const std::vector<TargetStructure> gate = {
        TargetStructure::IntAdder, TargetStructure::IntMultiplier,
        TargetStructure::FpAdder, TargetStructure::FpMultiplier};
    return workload == "sfi_gate" ? gate : storage;
}

harpo::core::LoopConfig
evolveConfig(std::uint64_t seed, const Shape &shape)
{
    harpo::core::LoopConfig cfg =
        harpo::core::presetFor(TargetStructure::IntRegFile);
    cfg.seed = seed;
    cfg.generations = shape.generations;
    cfg.gen.numInstructions = shape.evolveInstructions;
    if (shape.population) {
        cfg.population = shape.population;
        cfg.topK = std::max(1u, shape.population / 4);
    }
    return cfg;
}

/**
 * The workload's input programs. evolve's loop synthesizes its own
 * programs from the seed; its inputs are programs of the loop's
 * generator config that only the traced run's probes use. The sfi
 * workloads get MuSeqGen programs over an L1D-sized 32 KiB region
 * (stride 16) and a 128 KiB region (stride 64). They are short (1000
 * and 250 instructions), so that a pass averages over many programs.
 * sfi_storage adds two fixed baseline kernels; sfi_gate adds none,
 * because a kernel's stuck-at campaigns run 10-100x longer than a
 * generated program's and one would dominate every pass.
 */
Inputs
makeInputs(const std::string &workload, std::uint64_t seed,
           const Shape &shape)
{
    using harpo::museqgen::GenConfig;
    Inputs in;
    std::vector<GenConfig> configs;
    unsigned perConfig = shape.evolvePrograms;
    if (workload == "evolve") {
        configs.push_back(evolveConfig(seed, shape).gen);
        perConfig *= 2;
    } else {
        const bool gate = workload == "sfi_gate";
        perConfig = gate ? shape.gatePrograms : shape.storagePrograms;
        GenConfig small;
        small.namePrefix = "l1d32k";
        small.numInstructions =
            gate ? shape.gateInstructions : shape.storageInstructions;
        small.memory.regionSize = 32 * 1024;
        small.memory.stride = 16;
        GenConfig large = small;
        large.namePrefix = "mem128k";
        large.memory.regionSize = 128 * 1024;
        large.memory.stride = 64;
        configs = {small, large};
    }
    for (std::size_t g = 0; g < configs.size(); ++g) {
        in.generators.emplace_back(configs[g]);
        harpo::Rng rng(deriveSeed(seed, 0x1A7u, g));
        for (unsigned i = 0; i < perConfig; ++i) {
            Input item;
            item.generator = static_cast<int>(g);
            item.genome = in.generators[g].randomGenome(rng);
            item.program = in.generators[g].synthesize(
                item.genome,
                configs[g].namePrefix + "-" + std::to_string(i));
            in.items.push_back(std::move(item));
        }
    }
    if (workload == "sfi_storage" && shape.baselines) {
        auto pick = [&in](std::vector<harpo::baselines::Workload> suite,
                          const std::string &name) {
            for (auto &w : suite) {
                if (w.name == name) {
                    Input item;
                    item.program = std::move(w.program);
                    in.items.push_back(std::move(item));
                    return;
                }
            }
            throw std::runtime_error("baseline kernel " + name +
                                     " not found");
        };
        pick(harpo::baselines::mibenchSuite(), "basicmath");
        pick(harpo::baselines::dcdiagSuite(), "mxm");
    }
    return in;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Wall and process CPU time of one interval. */
struct Cost
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** Measures a Cost from construction (or the last lap) to now. */
class Stopwatch
{
  public:
    Cost
    lap()
    {
        const auto now = Clock::now();
        const double cpu = processCpuSeconds();
        const Cost c{secondsBetween(wall0, now), cpu - cpu0};
        wall0 = now;
        cpu0 = cpu;
        return c;
    }

  private:
    Clock::time_point wall0 = Clock::now();
    double cpu0 = processCpuSeconds();
};

/** Accounting and invariant checks of one campaign. */
void
checkCampaign(Report &report, const CampaignResult &r,
              const CampaignConfig &cfg, const std::string &label)
{
    report.attempted += cfg.numInjections;
    if (!r.goldenOk) {
        report.failed += cfg.numInjections;
        report.fail(label + ": golden run failed");
        return;
    }
    report.failed += r.failedInjections;
    report.check(!r.truncated, label + ": campaign truncated");
    report.check(r.total() + r.failedInjections == cfg.numInjections,
                 label + ": " + std::to_string(r.total()) + " + " +
                     std::to_string(r.failedInjections) +
                     " outcomes for " +
                     std::to_string(cfg.numInjections) + " injections");
    const double d = r.detection();
    report.check(d >= 0.0 && d <= 1.0, label + ": detection out of range");
}

void
checkUnit(Report &report, double v, const std::string &label)
{
    report.check(v >= 0.0 && v <= 1.0,
                 label + " = " + std::to_string(v) + " not in [0, 1]");
}

void
digestCampaign(Digest &d, const CampaignResult &r)
{
    for (const unsigned c : {r.masked, r.sdc, r.crash, r.hang,
                             r.hwCorrected, r.hwDetected,
                             r.failedInjections})
        d.add(static_cast<std::uint64_t>(c));
    d.add(r.goldenCycles);
    d.add(r.goldenSignature);
}

/** One timed campaign with its golden-cache outcome. */
struct CampaignRecord
{
    CampaignResult result;
    Cost cost;
    bool goldenMiss = false;
    std::size_t program = 0; ///< index into the campaign programs
};

CampaignRecord
timedCampaign(const harpo::isa::TestProgram &program,
              const CampaignConfig &cfg, std::size_t program_index,
              Tracer *tracer)
{
    ScopedSpan span(tracer, "faultsim.campaign");
    CampaignRecord rec;
    rec.program = program_index;
    const std::uint64_t misses = FaultCampaign::goldenCacheMisses();
    Stopwatch sw;
    rec.result = FaultCampaign::run(program, cfg);
    rec.cost = sw.lap();
    rec.goldenMiss = FaultCampaign::goldenCacheMisses() != misses;
    return rec;
}

/** What one pass produced. */
struct PassResult
{
    std::vector<Cost> steps;
    Cost busy;         ///< timed work of the pass
    double work = 0.0; ///< programs graded / injections completed
    std::vector<CampaignRecord> campaigns;
    harpo::core::TimingBreakdown timing; ///< evolve only
    unsigned generations = 0;            ///< evolve only
    double coverage = 0.0;  ///< evolve: mean best; sfi: mean of targets
    double detection = 0.0; ///< sfi only: mean over campaigns
    std::uint64_t digest = 0;
    std::vector<harpo::isa::TestProgram> best; ///< evolve: per loop
};

/** One loop of an evolve pass; adds its steps and results to @p pass. */
void
evolveLoop(const harpo::core::LoopConfig &cfg, Tracer *tracer,
           Report &report, PassResult &pass, Digest &digest)
{
    harpo::core::Harpocrates loop(cfg);
    Stopwatch step;
    auto stepStart = Clock::now();
    loop.onGeneration = [&](const harpo::core::GenerationStats &) {
        pass.steps.push_back(step.lap());
        const auto now = Clock::now();
        if (tracer)
            tracer->record("core.generation", stepStart, now);
        stepStart = now;
    };
    harpo::core::LoopResult r;
    {
        ScopedSpan loopSpan(tracer, "core.loop");
        Stopwatch total;
        step = Stopwatch();
        stepStart = Clock::now();
        r = loop.run();
        const Cost c = total.lap();
        pass.busy.wall += c.wall;
        pass.busy.cpu += c.cpu;
    }
    pass.work += static_cast<double>(r.programsEvaluated);
    pass.timing.mutationSec += r.timing.mutationSec;
    pass.timing.generationSec += r.timing.generationSec;
    pass.timing.compilationSec += r.timing.compilationSec;
    pass.timing.evaluationSec += r.timing.evaluationSec;
    pass.generations += static_cast<unsigned>(r.history.size());
    report.attempted += r.programsEvaluated;
    report.check(!r.truncated, "evolve: loop truncated");
    report.check(r.history.size() == cfg.generations,
                 "evolve: " + std::to_string(r.history.size()) +
                     " generations of " +
                     std::to_string(cfg.generations));
    report.check(r.programsEvaluated > 0, "evolve: no program graded");
    for (const auto &g : r.history) {
        checkUnit(report, g.bestCoverage, "evolve: bestCoverage");
        checkUnit(report, g.meanTopK, "evolve: meanTopK");
        digest.add(static_cast<std::uint64_t>(g.generation));
        digest.add(g.bestCoverage);
        digest.add(g.meanTopK);
        digest.add(g.evalCycles);
    }
    checkUnit(report, r.bestCoverage, "evolve: bestCoverage");
    digest.add(r.bestCoverage);
    digest.add(r.programsEvaluated);
    digest.add(r.instructionsGenerated);
    pass.coverage += r.bestCoverage;
    pass.best.push_back(std::move(r.bestProgram));
}

/** shape.loops independent loops, one per seed derived from the run's
 *  seed: several users' loops, which averages out how much one loop's
 *  cost depends on the lineage its seed happens to evolve. */
PassResult
evolvePass(const Options &opt, const Shape &shape, Tracer *tracer,
           Report &report)
{
    PassResult pass;
    Digest digest;
    ScopedSpan passSpan(tracer, "evolve.pass");
    for (unsigned k = 0; k < shape.loops; ++k)
        evolveLoop(evolveConfig(deriveSeed(opt.seed, 0xE70u, k), shape),
                   tracer, report, pass, digest);
    pass.coverage /= shape.loops;
    pass.digest = digest.value();
    return pass;
}

PassResult
sfiPass(const Options &opt, const Shape &shape, const Inputs &inputs,
        Tracer *tracer, Report &report)
{
    PassResult pass;
    Digest digest;
    ScopedSpan passSpan(tracer, "sfi.pass");
    const auto &targets = targetsOf(opt.workload);
    for (std::size_t p = 0; p < inputs.items.size(); ++p) {
        const auto &program = inputs.items[p].program;
        for (const TargetStructure t : targets) {
            CampaignConfig cfg = CampaignConfig::forTarget(t);
            if (shape.campaignInjections)
                cfg.numInjections = shape.campaignInjections;
            cfg.seed = deriveSeed(opt.seed, p, static_cast<unsigned>(t));
            CampaignRecord rec = timedCampaign(program, cfg, p, tracer);
            checkCampaign(report, rec.result, cfg,
                          program.name + "/" +
                              harpo::coverage::structureName(t));
            digestCampaign(digest, rec.result);
            pass.steps.push_back(rec.cost);
            pass.busy.wall += rec.cost.wall;
            pass.busy.cpu += rec.cost.cpu;
            pass.work += rec.result.total();
            pass.detection += rec.result.detection();
            pass.campaigns.push_back(rec);
        }
    }
    // Untimed: every program's coverage vector, from the unified golden
    // runs the campaigns just cached.
    {
        ScopedSpan span(tracer, "coverage.cached_lookup");
        for (const auto &item : inputs.items) {
            const harpo::coverage::CoverageVector cov =
                FaultCampaign::measureAllCoverageCached(
                    item.program, harpo::uarch::CoreConfig{});
            for (const double c : cov.coverage) {
                checkUnit(report, c, item.program.name + " coverage");
                digest.add(c);
            }
            for (const TargetStructure t : targets)
                pass.coverage += cov[t];
        }
    }
    const double n = static_cast<double>(pass.campaigns.size());
    pass.coverage /= n;
    pass.detection /= n;
    pass.digest = digest.value();
    return pass;
}

/** Polls the thread pool's queue-depth gauge while alive. */
class QueueDepthSampler
{
  public:
    QueueDepthSampler() : worker([this] { loop(); }) {}
    ~QueueDepthSampler()
    {
        stop.store(true);
        worker.join();
    }
    QueueDepthSampler(const QueueDepthSampler &) = delete;
    QueueDepthSampler &operator=(const QueueDepthSampler &) = delete;

    std::int64_t max() const { return maxDepth.load(); }

  private:
    void
    loop()
    {
        auto &reg = harpo::telemetry::MetricsRegistry::instance();
        while (!stop.load()) {
            for (const auto &[name, v] : reg.snapshot().gauges)
                if (name == "pool.queue_depth" && v > maxDepth.load())
                    maxDepth.store(v);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> maxDepth{0};
    std::thread worker; ///< declared last: uses the members above
};

/** Named counter value from the telemetry registry. */
std::uint64_t
counterValue(const std::string &name)
{
    auto &reg = harpo::telemetry::MetricsRegistry::instance();
    return reg.counterValue(reg.counter(name));
}

harpo::telemetry::HistogramSnapshot
histogramValue(const std::string &name)
{
    for (auto &[n, h] :
         harpo::telemetry::MetricsRegistry::instance().snapshot()
             .histograms)
        if (n == name)
            return h;
    return {};
}

/** Median of the observations added to a bounded histogram between
 *  @p before and @p after, interpolated within its bucket. */
double
histogramMedianDelta(const harpo::telemetry::HistogramSnapshot &before,
                     const harpo::telemetry::HistogramSnapshot &after)
{
    const std::uint64_t n = after.count - before.count;
    if (n == 0 || after.buckets.empty())
        return 0.0;
    const double half = static_cast<double>(n) / 2.0;
    double seen = 0.0;
    for (std::size_t b = 0; b < after.buckets.size(); ++b) {
        const double inBucket = static_cast<double>(
            after.buckets[b] -
            (b < before.buckets.size() ? before.buckets[b] : 0));
        const double lo = b == 0 ? 0.0 : after.bounds[b - 1];
        const double hi =
            b < after.bounds.size() ? after.bounds[b] : lo * 10.0;
        if (inBucket > 0 && seen + inBucket >= half)
            return lo + (hi - lo) * (half - seen) / inBucket;
        seen += inBucket;
    }
    return after.bounds.empty() ? 0.0 : after.bounds.back();
}

/** Batch-evaluator counters ("batch.*") as one value. */
struct BatchCounters
{
    std::uint64_t programs, hits, decodeHits, decodeMisses, simCycles;

    static BatchCounters
    read()
    {
        return {counterValue("batch.programs"),
                counterValue("batch.eval_cache_hits"),
                counterValue("batch.decode_hits"),
                counterValue("batch.decode_misses"),
                counterValue("batch.sim_cycles")};
    }
};

/** core.* and coverage batch metrics from completed loop runs. */
void
addLoopMetrics(Report &report, const harpo::core::TimingBreakdown &t,
               unsigned generations, const BatchCounters &before,
               const BatchCounters &after)
{
    const double g = std::max(1u, generations);
    report.add("core.mutation_s", t.mutationSec / g, "s");
    report.add("core.generation_s", t.generationSec / g, "s");
    report.add("core.compilation_s", t.compilationSec / g, "s");
    report.add("core.evaluation_s", t.evaluationSec / g, "s");
    const double programs =
        static_cast<double>(after.programs - before.programs);
    report.add("coverage.batch_hit_ratio",
               ratio(static_cast<double>(after.hits - before.hits),
                     programs),
               "ratio");
    const double dh =
        static_cast<double>(after.decodeHits - before.decodeHits);
    const double dm =
        static_cast<double>(after.decodeMisses - before.decodeMisses);
    report.add("coverage.decode_hit_ratio", ratio(dh, dh + dm), "ratio");
    report.add("coverage.sim_cycles_per_s",
               ratio(static_cast<double>(after.simCycles -
                                         before.simCycles),
                     t.evaluationSec),
               "cycles/s");
}

/** Cold golden-run time of @p program: one unified golden recording
 *  through measureAllCoverageCached with the cache emptied first. */
double
coldGoldenSeconds(const harpo::isa::TestProgram &program, Tracer *tracer)
{
    FaultCampaign::clearGoldenCache();
    ScopedSpan span(tracer, "faultsim.golden");
    const auto t0 = Clock::now();
    FaultCampaign::measureAllCoverageCached(program,
                                            harpo::uarch::CoreConfig{});
    return secondsSince(t0);
}

void
writeSpans(const Options &opt, const Tracer &tracer, Report &report)
{
    struct Agg
    {
        std::uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    const auto &spans = tracer.all();
    std::vector<double> childTime(spans.size(), 0.0);
    for (const auto &s : spans)
        if (s.parent != Tracer::noParent)
            childTime[s.parent] += s.end - s.start;
    std::map<std::string, Agg> agg;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Agg &a = agg[spans[i].name];
        const double d = spans[i].end - spans[i].start;
        ++a.count;
        a.total += d;
        a.self += d - childTime[i];
    }
    std::string summary = "{";
    for (const auto &[name, a] : agg) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"count\": %" PRIu64
                      ", \"total_s\": %.6f, \"self_s\": %.6f}",
                      summary.size() > 1 ? ", " : "", name.c_str(),
                      a.count, a.total, a.self);
        summary += buf;
    }
    report.info.push_back({"span_self_time", summary + "}"});

    const std::string path = opt.outDir + "/perfbench-spans-" +
                             opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"parent\": "
            << (s.parent == Tracer::noParent
                    ? std::string("null")
                    : std::to_string(s.parent))
            << ", \"start_s\": " << s.start << ", \"end_s\": " << s.end
            << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
    report.check(static_cast<bool>(out), "could not write " + path);
    report.info.push_back({"span_file", "\"" + path + "\""});
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::vector<double>
field(const std::vector<Cost> &costs, double Cost::*member)
{
    std::vector<double> out;
    out.reserve(costs.size());
    for (const Cost &c : costs)
        out.push_back(c.*member);
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"evolve", "sfi_storage",
                                                   "sfi_gate"};
    return names;
}

void
runWorkload(const Options &opt, Report &report)
{
    const Shape shape = shapeFor(opt.tiny);
    const bool evolve = opt.workload == "evolve";

    // ---- Set-up: gate layer plus inputs, measured several times ----
    // It runs before the passes and again after each one, so its median
    // samples the host over the whole run rather than one moment of it.
    // Every set-up builds the same inputs; the first one's are used.
    std::vector<double> setupCpu, setupWall;
    Inputs inputs;
    std::uint64_t gateCheck = 0;
    auto setUp = [&] {
        for (unsigned i = 0; i < kSetupRepsPerRound; ++i) {
            Stopwatch sw;
            gateCheck += buildGateLayer();
            Inputs built = makeInputs(opt.workload, opt.seed, shape);
            const Cost c = sw.lap();
            setupCpu.push_back(c.cpu);
            setupWall.push_back(c.wall);
            if (inputs.items.empty())
                inputs = std::move(built);
        }
    };
    setUp();
    report.check(gateCheck != 0, "gate layer set-up built nothing");
    report.check(!inputs.items.empty(), "no inputs generated");
    const auto warmStart = Clock::now();
    warmGateLibrary();
    report.info.push_back(
        {"gate_library_warm_s", jsonNumber(secondsSince(warmStart))});

    // ---- Measured passes ----
    Tracer tracer;
    std::vector<Cost> steps, tracedSteps, untracedSteps;
    Cost busy;
    double work = 0.0, coverage = 0.0, detection = 0.0;
    std::vector<std::uint64_t> digests;
    std::vector<CampaignRecord> campaigns;
    harpo::core::TimingBreakdown timing;
    unsigned generations = 0;
    std::vector<harpo::isa::TestProgram> best;
    std::int64_t queueDepthMax = 0;
    const BatchCounters batchBefore = BatchCounters::read();
    const auto waitBefore = histogramValue("pool.task_wait_us");
    std::uint64_t goldenHits = 0, goldenMisses = 0;

    const auto start = Clock::now();
    for (unsigned n = 0;; ++n) {
        const double elapsed = secondsSince(start);
        if (n >= 2 && elapsed + elapsed / n > opt.seconds)
            break;
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured under the same conditions.
        const bool traced = opt.trace && n % 2 == 1;
        Tracer *tr = traced ? &tracer : nullptr;
        FaultCampaign::clearGoldenCache();
        PassResult r;
        {
            std::unique_ptr<QueueDepthSampler> sampler;
            if (traced)
                sampler = std::make_unique<QueueDepthSampler>();
            r = evolve ? evolvePass(opt, shape, tr, report)
                       : sfiPass(opt, shape, inputs, tr, report);
            if (sampler)
                queueDepthMax = std::max(queueDepthMax, sampler->max());
        }
        setUp();
        for (const auto &c : r.campaigns)
            (c.goldenMiss ? goldenMisses : goldenHits) += 1;
        steps.insert(steps.end(), r.steps.begin(), r.steps.end());
        auto &split = traced ? tracedSteps : untracedSteps;
        split.insert(split.end(), r.steps.begin(), r.steps.end());
        busy.wall += r.busy.wall;
        busy.cpu += r.busy.cpu;
        work += r.work;
        digests.push_back(r.digest);
        campaigns.insert(campaigns.end(), r.campaigns.begin(),
                         r.campaigns.end());
        timing.mutationSec += r.timing.mutationSec;
        timing.generationSec += r.timing.generationSec;
        timing.compilationSec += r.timing.compilationSec;
        timing.evaluationSec += r.timing.evaluationSec;
        generations += r.generations;
        coverage = r.coverage;
        detection = r.detection;
        if (evolve)
            best = std::move(r.best);
    }
    const double measuredSecs = secondsSince(start);
    const BatchCounters batchAfter = BatchCounters::read();
    const auto waitAfter = histogramValue("pool.task_wait_us");

    for (const std::uint64_t d : digests)
        report.check(d == digests.front(),
                     "sim_digest differs between passes");
    std::uint64_t simDigest = digests.front();

    if (evolve) {
        // Timing has stopped: grade each loop's final best program by
        // SFI.
        FaultCampaign::clearGoldenCache();
        Digest d;
        d.add(simDigest);
        detection = 0.0;
        for (std::size_t k = 0; k < best.size(); ++k) {
            CampaignConfig camp =
                CampaignConfig::forTarget(TargetStructure::IntRegFile);
            camp.numInjections = shape.finalInjections;
            camp.seed = deriveSeed(opt.seed, 0xF1Au, k);
            const CampaignRecord rec = timedCampaign(
                best[k], camp, k, opt.trace ? &tracer : nullptr);
            checkCampaign(report, rec.result, camp,
                          "evolve: final campaign");
            (rec.goldenMiss ? goldenMisses : goldenHits) += 1;
            digestCampaign(d, rec.result);
            detection += rec.result.detection() / best.size();
            campaigns.push_back(rec);
        }
        simDigest = d.value();
    }

    const std::vector<double> stepCpu = field(steps, &Cost::cpu);
    const std::vector<double> stepWall = field(steps, &Cost::wall);
    const unsigned tailP = tailPercentile(steps.size());
    char digestHex[24];
    std::snprintf(digestHex, sizeof digestHex, "\"%016" PRIx64 "\"",
                  simDigest);
    report.info.push_back({"sim_digest", digestHex});
    std::string setupList = "[";
    for (const double v : setupCpu)
        setupList += (setupList.size() > 1 ? ", " : "") + jsonNumber(v);
    report.info.push_back({"setup_cpu_s", setupList + "]"});
    report.info.push_back({"passes", std::to_string(digests.size())});
    report.info.push_back({"steps", std::to_string(steps.size())});
    report.info.push_back({"step_tail_percentile", std::to_string(tailP)});
    report.info.push_back({"measured_s", jsonNumber(measuredSecs)});
    report.info.push_back(
        {"wall", "{\"setup_s\": " + jsonNumber(median(setupWall)) +
                     ", \"step_s_p50\": " + jsonNumber(median(stepWall)) +
                     ", \"step_s_tail\": " +
                     jsonNumber(percentile(stepWall, tailP)) +
                     ", \"throughput_per_s\": " +
                     jsonNumber(ratio(work, busy.wall)) + "}"});
    report.info.push_back(
        {"failed_frac",
         "{\"value\": " +
             jsonNumber(ratio(static_cast<double>(report.failed),
                              static_cast<double>(report.attempted))) +
             ", \"failed\": " + std::to_string(report.failed) +
             ", \"attempted\": " + std::to_string(report.attempted) + "}"});

    if (!opt.trace) {
        report.add("setup_s", median(setupCpu), "s");
        report.add("step_cpu_s_p50", median(stepCpu), "s");
        report.add("step_cpu_s_tail", percentile(stepCpu, tailP), "s");
        report.add("throughput_per_cpu_s", ratio(work, busy.cpu), "1/s");
        report.add("coverage", coverage, "frac");
        report.add("detection", detection, "frac");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // ---- Traced run: per-layer metrics ----
    if (evolve) {
        addLoopMetrics(report, timing, generations, batchBefore,
                       batchAfter);
    } else {
        // The sfi workloads run no loop; a short loop on the same seed
        // supplies the core.* and batch-grading numbers.
        const BatchCounters b0 = BatchCounters::read();
        Shape probe = shape;
        probe.generations = opt.tiny ? 2 : 4;
        harpo::core::Harpocrates loop(evolveConfig(opt.seed, probe));
        harpo::core::LoopResult r;
        {
            ScopedSpan span(&tracer, "core.loop");
            r = loop.run();
        }
        addLoopMetrics(report, r.timing,
                       static_cast<unsigned>(r.history.size()), b0,
                       BatchCounters::read());
    }

    // Cold golden time of every campaign program.
    std::vector<const harpo::isa::TestProgram *> campaignPrograms;
    if (evolve) {
        for (const auto &p : best)
            campaignPrograms.push_back(&p);
    } else {
        for (const auto &item : inputs.items)
            campaignPrograms.push_back(&item.program);
    }
    std::vector<double> goldenSecs;
    for (const auto *p : campaignPrograms) {
        std::vector<double> tries;
        for (int k = 0; k < 3; ++k)
            tries.push_back(coldGoldenSeconds(*p, &tracer));
        goldenSecs.push_back(median(tries));
    }
    report.add("faultsim.golden_s", median(goldenSecs), "s");
    double inject = 0.0, forked = 0.0, digestExits = 0.0, done = 0.0;
    double injected = 0.0;
    for (const auto &c : campaigns) {
        inject += c.cost.wall - (c.goldenMiss ? goldenSecs[c.program] : 0.0);
        forked += c.result.forkedInjections;
        digestExits += c.result.digestEarlyExits;
        done += c.result.total();
        injected += c.result.injectedFaults;
    }
    report.add("faultsim.inject_phase_s",
               inject / static_cast<double>(campaigns.size()), "s");
    report.add("faultsim.golden_hit_ratio",
               ratio(static_cast<double>(goldenHits),
                     static_cast<double>(goldenHits + goldenMisses)),
               "ratio");
    report.add("faultsim.forked_frac", ratio(forked, done), "ratio");
    report.add("faultsim.digest_exit_frac", ratio(digestExits, forked),
               "ratio");
    report.add("gates.collapse_ratio",
               opt.workload == "sfi_gate" ? ratio(done, injected)
                                          : sampledCollapseRatio(opt.seed),
               "count");
    report.add("pool.task_wait_us_p50",
               histogramMedianDelta(waitBefore, waitAfter), "us");
    report.add("pool.queue_depth_max", static_cast<double>(queueDepthMax),
               "count");
    report.add("bench.trace_overhead_frac",
               ratio(median(field(tracedSteps, &Cost::cpu)),
                     median(field(untracedSteps, &Cost::cpu))) -
                   1.0,
               "frac");

    LayerContext ctx{opt, inputs, &tracer, report};
    runLayerProbes(ctx);
    writeSpans(opt, tracer, report);
}

} // namespace perfbench
