/**
 * @file
 * Family-tagged workload registry (workloads/registry.hh): one table
 * drives every name surface — the Table 2 order, the per-family
 * subsets, CLI family parsing, and the canonical unknown-workload
 * diagnostic shared by olight_cli, olight_sweep, and the serving
 * protocol. These tests pin (a) the registry's internal consistency
 * and (b) that the surfaces genuinely emit the same diagnostic, so
 * adding a workload in one place cannot silently leave a surface
 * behind.
 */

#include <gtest/gtest.h>

#include <set>

#include "cli_common.hh"
#include "core/runner.hh"
#include "serve/protocol.hh"
#include "workloads/registry.hh"

namespace olight
{
namespace
{

const std::vector<WorkloadFamily> &
allFamilies()
{
    static const std::vector<WorkloadFamily> families = {
        WorkloadFamily::Stream, WorkloadFamily::App,
        WorkloadFamily::Txn, WorkloadFamily::Bitwise};
    return families;
}

TEST(FamilyRegistry, CoversEveryWorkloadExactlyOnce)
{
    std::set<std::string> names;
    for (const WorkloadEntry &e : workloadRegistry()) {
        EXPECT_TRUE(names.insert(e.name).second)
            << e.name << " registered twice";
        ASSERT_NE(e.make, nullptr) << e.name;
        auto w = e.make();
        EXPECT_EQ(w->info().name, e.name);
        EXPECT_EQ(workloadFamily(e.name), e.family) << e.name;
    }
    // Table 2's 12 kernels plus the txn and bitwise extensions.
    EXPECT_EQ(workloadRegistry().size(), 16u);
}

TEST(FamilyRegistry, FamilySubsetsPartitionTheRegistry)
{
    std::vector<std::string> joined;
    for (WorkloadFamily family : allFamilies())
        for (const std::string &name : workloadNames(family))
            joined.push_back(name);
    // Families are contiguous in registry order, so concatenating
    // the subsets reproduces the full name list exactly.
    EXPECT_EQ(joined, workloadNames());

    EXPECT_EQ(workloadNames(WorkloadFamily::Txn),
              (std::vector<std::string>{"Txn_Xfer", "Txn_Log"}));
    EXPECT_EQ(workloadNames(WorkloadFamily::Bitwise),
              (std::vector<std::string>{"Bit_Xnor", "Bit_RowFold"}));
}

TEST(FamilyRegistry, LegacyAccessorsAreThinWrappers)
{
    EXPECT_EQ(streamWorkloadNames(),
              workloadNames(WorkloadFamily::Stream));
    EXPECT_EQ(appWorkloadNames(), workloadNames(WorkloadFamily::App));
    EXPECT_EQ(streamWorkloadNames(),
              (std::vector<std::string>{"Scale", "Copy", "Daxpy",
                                        "Triad", "Add"}));
    EXPECT_EQ(appWorkloadNames(),
              (std::vector<std::string>{"BN_Fwd", "BN_Bwd", "FC",
                                        "KMeans", "SVM", "Hist",
                                        "Gen_Fil"}));
}

TEST(FamilyRegistry, FamilyNamesRoundTrip)
{
    for (WorkloadFamily family : allFamilies()) {
        WorkloadFamily parsed;
        ASSERT_TRUE(familyFromName(toString(family), parsed))
            << toString(family);
        EXPECT_EQ(parsed, family);
    }
    WorkloadFamily out;
    EXPECT_FALSE(familyFromName("Stream", out));
    EXPECT_FALSE(familyFromName("", out));
    EXPECT_FALSE(familyFromName("transactional", out));
}

/** The strings every family surface is probed with. */
const std::vector<std::string> &
probeStrings()
{
    static const std::vector<std::string> probes = {
        "stream", "app", "txn",     "bitwise", "Stream",
        "TXN",    "",    "bit-wise", "apps",
    };
    return probes;
}

TEST(FamilyRegistry, CliAndCoreAgreeOnEveryProbe)
{
    for (const std::string &probe : probeStrings()) {
        WorkloadFamily viaCore, viaCli;
        bool core = familyFromName(probe, viaCore);
        bool cli = cli::tryParseFamily(probe, viaCli);
        EXPECT_EQ(cli, core) << probe;
        if (core && cli)
            EXPECT_EQ(viaCli, viaCore) << probe;
    }
}

TEST(FamilyRegistry, UnknownWorkloadMessageListsEveryFamily)
{
    std::string msg = unknownWorkloadMessage("Nope");
    EXPECT_EQ(msg,
              "unknown workload 'Nope' (stream: Scale, Copy, Daxpy, "
              "Triad, Add; app: BN_Fwd, BN_Bwd, FC, KMeans, SVM, "
              "Hist, Gen_Fil; txn: Txn_Xfer, Txn_Log; bitwise: "
              "Bit_Xnor, Bit_RowFold)");
    for (const std::string &name : workloadNames())
        EXPECT_NE(msg.find(name), std::string::npos) << name;
}

TEST(FamilyRegistry, ServeProtocolEmitsTheCanonicalDiagnostic)
{
    // The serving daemon's bad-request reply must carry the exact
    // shared unknown-workload string (satellite of the one-formatter
    // contract with the CLI tools, which print it verbatim).
    serve::Request req;
    std::string err;
    bool ok = serve::parseRequest(
        R"({"cmd":"run","id":1,"workload":"Nope","elements":4096})",
        req, err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find(unknownWorkloadMessage("Nope")),
              std::string::npos)
        << err;

    ok = serve::parseRequest(
        R"({"cmd":"sweep","id":2,"workloads":["Add","Bogus"],)"
        R"("elements":4096})",
        req, err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find(unknownWorkloadMessage("Bogus")),
              std::string::npos)
        << err;

    // Registered extension-family names pass serve validation.
    ok = serve::parseRequest(
        R"({"cmd":"run","id":3,"workload":"Bit_RowFold",)"
        R"("elements":4096})",
        req, err);
    EXPECT_TRUE(ok) << err;
    ok = serve::parseRequest(
        R"({"cmd":"run","id":4,"workload":"Txn_Log",)"
        R"("elements":4096})",
        req, err);
    EXPECT_TRUE(ok) << err;
}

/** Every workload x small TS either is rejected up front — by
 *  fitsElements, with the same answer from serve validation — or
 *  simulates and verifies. Small TS sizes used to panic ("TS slot out
 *  of range"), throw std::bad_alloc, or overflow the heap in
 *  Hist::check. */
TEST(FamilyRegistry, SmallTsIsRejectedOrSimulatesCorrectly)
{
    const std::uint64_t elements = 8192;
    std::set<std::string> rejected;
    for (const std::string &name : workloadNames()) {
        for (std::uint32_t ts : {32u, 64u, 96u, 128u}) {
            SCOPED_TRACE(name + " ts=" + std::to_string(ts));
            RunOptions opts;
            opts.workload = name;
            opts.elements = elements;
            opts.tsBytes = ts;
            SystemConfig cfg =
                configFor(opts.mode, ts, opts.bmf, opts.base);
            std::string why;
            const bool fits =
                makeWorkload(name)->fitsElements(cfg, elements, why);

            serve::Request req;
            std::string err;
            const bool accepted = serve::parseRequest(
                R"({"cmd":"run","workload":")" + name +
                    R"(","elements":8192,"ts":)" + std::to_string(ts) +
                    "}",
                req, err);
            EXPECT_EQ(accepted, fits) << err;
            if (!fits) {
                EXPECT_NE(err.find(why), std::string::npos) << err;
                rejected.insert(name + "@" + std::to_string(ts));
                continue;
            }
            RunResult r = runWorkload(opts);
            EXPECT_TRUE(r.verified);
            EXPECT_TRUE(r.correct) << r.why;
        }
    }
    EXPECT_EQ(rejected,
              (std::set<std::string>{
                  "FC@32", "KMeans@32", "SVM@32", "Hist@32", "Hist@64",
                  "Hist@96", "Gen_Fil@32", "Gen_Fil@64", "Txn_Xfer@32",
                  "Bit_Xnor@32", "Bit_RowFold@32"}));
}

} // namespace
} // namespace olight
