/**
 * @file
 * Per-layer probes of the traced run: each times calls into one
 * layer's public functions on the workload's own input programs, so
 * the numbers explain that workload's end-to-end metrics. Every probe
 * records a span around its calls.
 */

#include <set>

#include "bench.hh"
#include "coverage/analyzers.hh"
#include "coverage/ibr.hh"
#include "coverage/measure.hh"
#include "faultsim/campaign.hh"
#include "gates/fault_collapse.hh"
#include "gates/fp_units.hh"
#include "gates/fu_library.hh"
#include "gates/int_units.hh"
#include "isa/encoding.hh"
#include "uarch/core.hh"
#include "uarch/probes.hh"

namespace perfbench
{

using harpo::coverage::TargetStructure;
using harpo::gates::Netlist;
using harpo::uarch::Core;
using harpo::uarch::CoreConfig;

namespace
{

/** Repeat @p body until at least @p min_seconds have passed; returns
 *  (calls, seconds). */
template <typename F>
std::pair<double, double>
repeatFor(double min_seconds, F &&body)
{
    const auto t0 = Clock::now();
    double calls = 0.0;
    do {
        body();
        calls += 1.0;
    } while (secondsSince(t0) < min_seconds);
    return {calls, secondsSince(t0)};
}

/** At most this many inputs, spread evenly over the input list, feed
 *  the probes; it bounds the traced run's probe time. */
constexpr std::size_t kProbePrograms = 6;

std::vector<const Input *>
probeInputs(const LayerContext &ctx)
{
    const auto &items = ctx.inputs.items;
    const std::size_t stride =
        std::max<std::size_t>(1, items.size() / kProbePrograms);
    std::vector<const Input *> out;
    for (std::size_t i = 0; i < items.size() && out.size() < kProbePrograms;
         i += stride)
        out.push_back(&items[i]);
    return out;
}

/** Times saveSnapshot() and stateDigest() once, at @p at_cycle. */
class SnapshotProbe : public harpo::uarch::CoreProbe
{
  public:
    explicit SnapshotProbe(std::uint64_t at_cycle) : at(at_cycle) {}

    void
    onCycleBegin(Core &core, std::uint64_t cycle) override
    {
        if (cycle != at)
            return;
        auto t0 = Clock::now();
        snapshot = core.saveSnapshot();
        saveSeconds = secondsSince(t0);
        constexpr int kDigests = 16;
        t0 = Clock::now();
        for (int i = 0; i < kDigests; ++i)
            digestSink ^= core.stateDigest();
        digestSeconds = secondsSince(t0) / kDigests;
        taken = true;
    }

    std::uint64_t at;
    bool taken = false;
    Core::Snapshot snapshot;
    double saveSeconds = 0.0;
    double digestSeconds = 0.0;
    std::uint64_t digestSink = 0;
};

/** Stops a resumed run at its first cycle, so resumeFrom() costs only
 *  the state restore. */
class StopProbe : public harpo::uarch::CoreProbe
{
  public:
    void
    onCycleBegin(Core &core, std::uint64_t) override
    {
        core.requestStop();
    }
};

void
probeSynthesisAndEncoding(LayerContext &ctx)
{
    const auto items = probeInputs(ctx);
    double synthInsts = 0.0, synthSecs = 0.0;
    {
        ScopedSpan span(ctx.tracer, "museqgen.synthesize");
        for (const Input *item : items) {
            if (item->generator < 0)
                continue;
            const auto &gen = ctx.inputs.generators[item->generator];
            const auto [calls, secs] = repeatFor(0.02, [&] {
                const auto p = gen.synthesize(item->genome, "probe");
                ctx.report.check(p.code.size() == item->program.code.size(),
                                 "re-synthesis changed program size");
            });
            synthInsts +=
                calls * static_cast<double>(item->genome.seq.size());
            synthSecs += secs;
        }
    }
    ctx.report.add("museqgen.synth_insts_per_s", synthInsts / synthSecs,
                   "insts/s");

    double encInsts = 0.0, encSecs = 0.0;
    {
        ScopedSpan span(ctx.tracer, "isa.encode");
        for (const Input *item : items) {
            const auto [calls, secs] = repeatFor(0.02, [&] {
                const auto bytes =
                    harpo::isa::encodeProgram(item->program.code);
                ctx.report.check(!bytes.empty(), "empty encoding");
            });
            encInsts +=
                calls * static_cast<double>(item->program.code.size());
            encSecs += secs;
        }
    }
    ctx.report.add("isa.encode_insts_per_s", encInsts / encSecs, "insts/s");
}

void
probeCore(LayerContext &ctx)
{
    const CoreConfig cfg{};
    double insts = 0.0, cycles = 0.0, secs = 0.0;
    double simCycles = 0.0, simInsts = 0.0;
    std::vector<double> saveUs, resumeUs, digestUs;
    for (const Input *item : probeInputs(ctx)) {
        const auto &program = item->program;
        harpo::uarch::SimResult bare;
        {
            ScopedSpan span(ctx.tracer, "uarch.run");
            const auto [calls, s] = repeatFor(0.05, [&] {
                Core core(cfg);
                bare = core.run(program);
            });
            insts += calls * static_cast<double>(bare.instsCommitted);
            cycles += calls * static_cast<double>(bare.cycles);
            secs += s;
        }
        ctx.report.check(!bare.crashed(),
                         program.name + ": bare run did not finish");
        simCycles += static_cast<double>(bare.cycles);
        simInsts += static_cast<double>(bare.instsCommitted);

        // Snapshot, digest and restore costs at mid-run.
        ScopedSpan span(ctx.tracer, "uarch.snapshot");
        SnapshotProbe snap(bare.cycles / 2);
        Core core(cfg);
        core.run(program, nullptr, &snap);
        ctx.report.check(snap.taken, program.name + ": no snapshot taken");
        if (!snap.taken)
            continue;
        saveUs.push_back(snap.saveSeconds * 1e6);
        digestUs.push_back(snap.digestSeconds * 1e6);
        std::vector<double> tries;
        for (int k = 0; k < 5; ++k) {
            StopProbe stop;
            Core resumed(cfg);
            const auto t0 = Clock::now();
            resumed.resumeFrom(snap.snapshot, program, nullptr, &stop);
            tries.push_back(secondsSince(t0) * 1e6);
        }
        resumeUs.push_back(median(tries));
    }
    ctx.report.add("uarch.core_insts_per_s", insts / secs, "insts/s");
    ctx.report.add("uarch.core_cycles_per_s", cycles / secs, "cycles/s");
    ctx.report.add("uarch.snapshot_save_us", median(saveUs), "us");
    ctx.report.add("uarch.resume_us", median(resumeUs), "us");
    ctx.report.add("uarch.state_digest_us", median(digestUs), "us");
    ctx.report.add("uarch.sim_cycles", simCycles, "cycles");
    ctx.report.add("uarch.ipc", simCycles > 0 ? simInsts / simCycles : 0.0,
                   "insts/cycle");
}

void
probeCoverage(LayerContext &ctx)
{
    const CoreConfig cfg{};
    std::vector<double> gradeSecs;
    {
        ScopedSpan span(ctx.tracer, "coverage.measure_all");
        for (const Input *item : probeInputs(ctx)) {
            const auto t0 = Clock::now();
            const auto cov =
                harpo::coverage::measureAllCoverage(item->program, cfg);
            gradeSecs.push_back(secondsSince(t0));
            for (const double c : cov.coverage)
                ctx.report.check(c >= 0.0 && c <= 1.0,
                                 item->program.name +
                                     ": coverage not in [0, 1]");
        }
    }
    ctx.report.add("coverage.grade_all_s", median(gradeSecs), "s");

    // Analyser cost: one analyser attached minus a bare run of the
    // same program. The runs alternate so host drift cancels, and each
    // side takes its median, because an analyser costs less than the
    // run-to-run noise of one run. The four FU targets share one
    // metric, IBR, so each attaches the IbrArithModel.
    ScopedSpan span(ctx.tracer, "coverage.analysers");
    const auto items = probeInputs(ctx);
    for (const auto &info : harpo::coverage::allStructures()) {
        std::vector<double> deltaUs;
        for (const Input *item : items) {
            std::vector<double> bare, attached;
            for (int k = 0; k < 7; ++k) {
                Core bareCore(cfg);
                auto t0 = Clock::now();
                bareCore.run(item->program);
                bare.push_back(secondsSince(t0));

                Core core(cfg);
                if (info.makeAnalyzer) {
                    auto analyzer = info.makeAnalyzer();
                    harpo::uarch::ProbeSet probes;
                    probes.add(analyzer.get());
                    t0 = Clock::now();
                    core.run(item->program, probes);
                } else {
                    harpo::coverage::IbrArithModel ibr;
                    t0 = Clock::now();
                    core.run(item->program, &ibr, nullptr);
                }
                attached.push_back(secondsSince(t0));
            }
            deltaUs.push_back((median(attached) - median(bare)) * 1e6);
        }
        ctx.report.add(std::string("coverage.analyser_us.") + info.name,
                       median(deltaUs), "us");
    }
}

void
probeGates(LayerContext &ctx)
{
    ScopedSpan span(ctx.tracer, "gates.evaluate_batch");
    const auto &lib = harpo::gates::FuLibrary::instance();
    harpo::Rng rng(deriveSeed(ctx.opt.seed, 0x6A7Eu));
    double evals = 0.0, secs = 0.0;
    for (const auto circuit :
         {harpo::isa::FuCircuit::IntAdd, harpo::isa::FuCircuit::IntMul,
          harpo::isa::FuCircuit::FpAdd, harpo::isa::FuCircuit::FpMul}) {
        const Netlist &nl = lib.netlistFor(circuit);
        // 63 faulty lanes on distinct random gates, lane 0 fault-free.
        std::set<Netlist::NodeId> gates;
        const auto &logic = nl.logicGates();
        while (gates.size() < 63 && gates.size() < logic.size())
            gates.insert(logic[rng.below(logic.size())]);
        std::vector<Netlist::LaneFault> faults;
        unsigned lane = 1;
        for (const auto g : gates) {
            const std::uint64_t bit = 1ull << lane++;
            faults.push_back({g, bit, rng.chance(0.5) ? bit : 0});
        }
        std::vector<std::uint64_t> inputs(nl.numInputs()), outputs,
            scratch;
        for (auto &w : inputs)
            w = rng.next();
        const auto [calls, s] = repeatFor(0.1, [&] {
            nl.evaluateBatch(inputs, outputs, faults, scratch);
        });
        evals += calls * static_cast<double>(nl.numNodes()) * 64.0;
        secs += s;
    }
    ctx.report.add("gates.lane_gate_evals_per_s", evals / secs,
                   "gate_evals/s");
}

} // namespace

std::uint64_t
buildGateLayer()
{
    const harpo::gates::IntAdderCircuit intAdd;
    const harpo::gates::IntMultiplierCircuit intMul;
    const harpo::gates::FpAdderCircuit fpAdd;
    const harpo::gates::FpMultiplierCircuit fpMul;
    std::uint64_t classes = 0;
    for (const Netlist *nl : {&intAdd.netlist(), &intMul.netlist(),
                              &fpAdd.netlist(), &fpMul.netlist()})
        classes += harpo::gates::CollapsedFaultSet::build(*nl).numClasses();
    return classes;
}

void
warmGateLibrary()
{
    const auto &lib = harpo::gates::FuLibrary::instance();
    for (const auto c :
         {harpo::isa::FuCircuit::IntAdd, harpo::isa::FuCircuit::IntMul,
          harpo::isa::FuCircuit::FpAdd, harpo::isa::FuCircuit::FpMul})
        lib.collapsedFor(c);
}

double
sampledCollapseRatio(std::uint64_t seed)
{
    using harpo::faultsim::CampaignConfig;
    using harpo::faultsim::FaultCampaign;
    double sampled = 0.0, injected = 0.0;
    for (const TargetStructure t :
         {TargetStructure::IntAdder, TargetStructure::IntMultiplier,
          TargetStructure::FpAdder, TargetStructure::FpMultiplier}) {
        CampaignConfig cfg = CampaignConfig::forTarget(t);
        cfg.seed = deriveSeed(seed, 0xC011u, static_cast<unsigned>(t));
        const auto faults = FaultCampaign::sampleFaults(cfg, 10000);
        const auto plan =
            FaultCampaign::collapseSampledFaults(faults, t, true);
        sampled += static_cast<double>(faults.size());
        injected += static_cast<double>(plan.inject.size());
    }
    return injected > 0.0 ? sampled / injected : 0.0;
}

void
runLayerProbes(LayerContext &ctx)
{
    ScopedSpan span(ctx.tracer, "probes");
    probeSynthesisAndEncoding(ctx);
    probeCore(ctx);
    probeCoverage(ctx);
    probeGates(ctx);
}

} // namespace perfbench
