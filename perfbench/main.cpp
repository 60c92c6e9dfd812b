/**
 * @file
 * perfbench — the repository's end-to-end benchmark program.
 *
 *   perfbench --workload <evolve|sfi_storage|sfi_gate> --seed <n>
 *             --seconds <s> --trace <0|1> [--tiny]
 *             [--commit <id>] [--source-digest <hex>] [--out-dir <dir>]
 *
 * Prints one JSON line of run details (host, build, sim_digest, sample
 * counts, errors) and, as the last line, the result object
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
 * end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero on
 * bad arguments, on a sanitizer or unoptimised build, or when a
 * correctness check fails. Normally started through run.py, which
 * builds this binary first.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hh"

using namespace perfbench;

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
                 "[--commit <id>] [--source-digest <hex>] "
                 "[--out-dir <dir>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            opt.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = val;
                haveWorkload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(val);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (arg == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = val == "1";
            } else if (arg == "--commit") {
                opt.commit = val;
            } else if (arg == "--source-digest") {
                opt.sourceDigest = val;
            } else if (arg == "--out-dir") {
                opt.outDir = val;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    bool known = false;
    for (const auto &w : workloadNames())
        known = known || w == opt.workload;
    if (!known)
        usage(("unknown workload " + opt.workload).c_str());
    if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0))
        usage("--seconds must be in (0, 3600]");
    return opt;
}

/** Why numbers from this build must not be reported, or empty. */
std::string
buildRefusal()
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
    if (flags.find("-fsanitize") != std::string::npos)
        return "a sanitizer build (" + flags + ")";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitizer build";
#endif
#ifndef __OPTIMIZE__
    return "an unoptimised build (build type '" +
           std::string(PERFBENCH_BUILD_TYPE) + "')";
#endif
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type == "Debug")
        return "a Debug build";
    return "";
}

std::string
compilerId()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr, "perfbench: refusing to report from %s\n",
                     refusal.c_str());
        return 3;
    }

    Report report;
    try {
        runWorkload(opt, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    if (report.attempted == 0)
        report.fail("no operation was attempted");

    std::string info = "{\"perfbench\": {";
    info += "\"workload\": " + jsonString(opt.workload);
    info += ", \"seed\": " + std::to_string(opt.seed);
    info += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
    info += ", \"tiny\": " + std::string(opt.tiny ? "true" : "false");
    info += ", \"host\": {\"nproc\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
            ", \"compiler\": " + jsonString(compilerId()) +
            ", \"cxx_flags\": " + jsonString(PERFBENCH_CXX_FLAGS) +
            ", \"commit\": " + jsonString(opt.commit) +
            ", \"source_digest\": " + jsonString(opt.sourceDigest) + "}";
    for (const auto &[key, value] : report.info)
        info += ", " + jsonString(key) + ": " + value;
    info += ", \"errors\": [";
    for (std::size_t i = 0; i < report.errors.size(); ++i)
        info += (i ? ", " : "") + jsonString(report.errors[i]);
    info += "]}}";
    std::printf("%s\n", info.c_str());

    std::string out = "{\"correct\": ";
    out += report.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);

    for (const auto &e : report.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    return report.correct ? 0 : 1;
}
