/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the report
 * it prints, sample statistics, the output digest and the span
 * recorder used by traced runs.
 */

#ifndef HARPOCRATES_PERFBENCH_BENCH_HH
#define HARPOCRATES_PERFBENCH_BENCH_HH

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "museqgen/museqgen.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/** CPU time consumed so far by all threads of this process. Unlike
 *  wall time, it does not grow while the host runs other work. */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrunken inputs for the smoke test; never for measurements. */
    bool tiny = false;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    /** Where the traced run writes its span file. */
    std::string outDir = ".";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run prints. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra output fields, as pre-rendered JSON values. */
    std::vector<std::pair<std::string, std::string>> info;
    std::vector<std::string> errors;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a broken invariant; the run reports correct=false. */
    void
    fail(const std::string &why)
    {
        correct = false;
        errors.push_back(why);
    }

    void
    check(bool ok, const std::string &why)
    {
        if (!ok)
            fail(why);
    }
};

// ---- Sample statistics ----

/** Linear-interpolated percentile @p p (0..100) of @p v. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/** The highest whole percentile that leaves at least ten samples
 *  above it (capped at 99; 50 when there are too few samples). */
inline unsigned
tailPercentile(std::size_t n)
{
    if (n <= 20)
        return 50;
    const auto p = static_cast<unsigned>(
        std::floor(100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n)));
    return std::min(99u, p);
}

/** Order-sensitive digest of simulation outputs (splitmix64 mixing;
 *  the benchmark's own, so library hash changes cannot move it). */
class Digest
{
  public:
    void
    add(std::uint64_t w)
    {
        std::uint64_t z = w + 0x9E3779B97F4A7C15ull + state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        state = z ^ (z >> 31);
    }

    void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0x243F6A8885A308D3ull;
};

/** Stable child seed of (@p seed, @p a, @p b). */
inline std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0)
{
    Digest d;
    d.add(seed);
    d.add(a);
    d.add(b);
    return d.value();
}

// ---- Spans ----

/**
 * In-memory span recorder for traced runs. Spans are recorded on the
 * benchmark's main thread only, around calls into the library, so a
 * stack gives each span its parent. A null Tracer pointer disables
 * recording (ScopedSpan then does nothing).
 */
class Tracer
{
  public:
    static constexpr std::uint32_t noParent = 0xFFFFFFFFu;

    struct Span
    {
        std::string name;
        std::uint32_t parent = noParent;
        double start = 0.0; ///< seconds since the tracer was created
        double end = 0.0;
    };

    std::uint32_t
    open(const std::string &name)
    {
        const auto id = static_cast<std::uint32_t>(spans.size());
        spans.push_back({name, stack.empty() ? noParent : stack.back(),
                         secondsSince(origin), 0.0});
        stack.push_back(id);
        return id;
    }

    void
    close(std::uint32_t id)
    {
        spans[id].end = secondsSince(origin);
        if (!stack.empty() && stack.back() == id)
            stack.pop_back();
    }

    /** Record an already-finished child of the innermost open span. */
    void
    record(const std::string &name, Clock::time_point start,
           Clock::time_point end)
    {
        spans.push_back({name, stack.empty() ? noParent : stack.back(),
                         secondsBetween(origin, start),
                         secondsBetween(origin, end)});
    }

    const std::vector<Span> &all() const { return spans; }

  private:
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<std::uint32_t> stack;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name) : t(tracer)
    {
        if (t)
            id = t->open(name);
    }
    ~ScopedSpan()
    {
        if (t)
            t->close(id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t;
    std::uint32_t id = 0;
};

// ---- Inputs and the layer probes ----

/** One input program; generated ones keep their genome and generator
 *  so the synthesis probe can re-synthesize them. */
struct Input
{
    harpo::isa::TestProgram program;
    int generator = -1; ///< index into Inputs::generators, -1: fixed kernel
    harpo::museqgen::Genome genome;
};

struct Inputs
{
    std::vector<harpo::museqgen::MuSeqGen> generators;
    std::vector<Input> items;
};

/** Shared state the layer probes read and add their metrics to. */
struct LayerContext
{
    const Options &opt;
    const Inputs &inputs;
    Tracer *tracer;
    Report &report;
};

/** Run every per-layer probe that is independent of the workload's
 *  own calls, adding its metrics to @p ctx.report (layers.cpp). */
void runLayerProbes(LayerContext &ctx);

/** The gate layer's set-up work: build the four FU netlists and their
 *  collapsed fault sets from scratch (layers.cpp). Returns a value
 *  derived from the result so the work cannot be optimised away. */
std::uint64_t buildGateLayer();

/** Finish the lazy construction of the process-wide FU library (the
 *  netlists and collapsed sets the campaigns use), so it is not left
 *  to the first measured campaign (layers.cpp). */
void warmGateLibrary();

/** Sampled faults per injected class representative over a stuck-at
 *  sample of each FU target (layers.cpp). */
double sampledCollapseRatio(std::uint64_t seed);

/** Run one workload and fill @p report (workloads.cpp). */
void runWorkload(const Options &opt, Report &report);

/** Names of the workloads runWorkload accepts. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // HARPOCRATES_PERFBENCH_BENCH_HH
