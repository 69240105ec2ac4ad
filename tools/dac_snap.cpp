/**
 * @file
 * dac_snap: inspect and verify model snapshot files
 * (persist/snapshot.h) without starting a server.
 *
 * Usage: dac_snap <command> [--deep]
 *
 *   inspect FILE   print the header fields (magic, version, flags,
 *                  lengths, checksums) plus, when the file decodes,
 *                  the entry metadata: workload, cluster, size band,
 *                  model kind, tree/node counts, training vectors.
 *                  A damaged file still prints what the header said
 *                  next to the typed error the loader reports.
 *   verify FILE    full decode and checksum validation; exit 0 only
 *                  when the loader accepts the file. With --deep,
 *                  additionally prove the persistence invariants on
 *                  this very file:
 *                    - the stored compiled ensemble predicts
 *                      bit-identically to a fresh compile of the
 *                      stored model, through the serial reference
 *                      walk and the blocked walk, over the stored
 *                      training vectors;
 *                    - re-encoding the decoded snapshot reproduces
 *                      the file bytes exactly (idempotence).
 *   ls DIR         one summary line per *.dacsnap file in DIR
 *                  (corrupt files are listed with their error, not
 *                  skipped silently).
 *
 * Exit code: 0 = accepted (all checks passed), 1 = rejected/failed,
 * 2 = usage error.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "ml/flat_ensemble.h"
#include "ml/model.h"
#include "persist/snapshot.h"
#include "support/mapped_file.h"

#include "flags.h"

namespace {

using namespace dac;

/** A double as its IEEE-754 bit pattern, e.g. "0x3ff0000000000000". */
std::string
bitHex(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(v)));
    return buf;
}

void
printHeader(const persist::SnapshotHeader &header)
{
    std::printf("  magic:       0x%08x%s\n", header.magic,
                header.magic == persist::kSnapshotMagic ? " (\"DACS\")"
                                                        : " (BAD)");
    std::printf("  version:     %u (reader speaks %u)\n", header.version,
                persist::kSnapshotVersion);
    std::printf("  flags:       0x%04x\n", header.flags);
    std::printf("  payload:     %llu byte(s)\n",
                static_cast<unsigned long long>(header.payloadLen));
    std::printf("  payloadCrc:  0x%08x\n", header.payloadCrc);
    std::printf("  headerCrc:   0x%08x\n", header.headerCrc);
}

void
printEntry(const persist::ModelSnapshot &snap)
{
    std::printf("  workload:    %s\n", snap.workload.c_str());
    std::printf("  cluster:     %s\n", snap.cluster.c_str());
    std::printf("  sizeBand:    %d\n", snap.sizeBand);
    std::printf("  modelErr:    %.3f%%\n", snap.modelErrorPct);
    std::printf("  model:       %s\n", snap.model->name().c_str());
    std::printf("  vectors:     %zu training row(s)\n",
                snap.vectors.size());
    if (snap.compiled != nullptr) {
        std::printf("  compiled:    %zu member(s), %zu tree(s), "
                    "%zu node(s), %zu block(s)%s\n",
                    snap.compiled->memberCount(),
                    snap.compiled->treeCount(),
                    snap.compiled->nodeCount(),
                    snap.compiled->blockCount(),
                    snap.compiled->expOutput() ? ", exp output" : "");
    } else {
        std::printf("  compiled:    (absent; loader recompiles)\n");
    }
}

int
inspect(const std::string &path)
{
    MappedFile file;
    if (!file.open(path)) {
        std::cerr << "dac_snap: cannot open " << path << "\n";
        return 1;
    }
    std::printf("%s: %zu byte(s)\n", path.c_str(), file.size());
    persist::SnapshotHeader header;
    const persist::SnapshotError headerError = persist::readSnapshotHeader(
        static_cast<const uint8_t *>(file.data()), file.size(), &header);
    if (file.size() >= persist::SnapshotHeader::kBytes)
        printHeader(header);
    const auto result = persist::decodeSnapshot(
        static_cast<const uint8_t *>(file.data()), file.size());
    if (!result.ok()) {
        std::printf("  verdict:     REJECTED (%s)%s%s\n",
                    persist::snapshotErrorName(
                        headerError != persist::SnapshotError::None
                            ? headerError
                            : result.error),
                    result.message.empty() ? "" : ": ",
                    result.message.c_str());
        return 1;
    }
    printEntry(result.snapshot);
    std::printf("  verdict:     OK\n");
    return 0;
}

/** The --deep bit-identity battery; returns 0 when every check holds. */
int
deepVerify(const std::string &path, const persist::ModelSnapshot &snap,
           const uint8_t *bytes, size_t len)
{
    // Idempotence: the decoded entry must encode back to the exact
    // file bytes — proof the format round-trips without drift.
    const auto reencoded = persist::encodeSnapshot(persist::viewOf(snap));
    if (reencoded.size() != len ||
        !std::equal(reencoded.begin(), reencoded.end(), bytes)) {
        std::cerr << path << ": FAIL re-encode differs from file bytes\n";
        return 1;
    }

    // Walk battery: the stored compiled ensemble, a fresh compile of
    // the stored model, and the interpreted model must all agree to
    // the bit, through the serial reference walk and the blocked walk.
    const std::shared_ptr<const ml::FlatEnsemble> stored =
        snap.compiled != nullptr
            ? snap.compiled
            : std::shared_ptr<const ml::FlatEnsemble>(
                  snap.model->compile());
    const std::unique_ptr<ml::FlatEnsemble> fresh = snap.model->compile();
    const auto walk = [](const ml::FlatEnsemble &flat, bool serial,
                         const std::vector<double> &x) {
        return serial ? flat.predictSerial(x.data(), x.size())
                      : flat.predict(x.data(), x.size());
    };

    size_t checked = 0;
    for (const auto &vec : snap.vectors) {
        std::vector<double> features = vec.config;
        features.push_back(vec.dsizeBytes);
        if (features.size() < stored->minFeatureCount())
            continue; // not a feature row this ensemble can score
        const double want = snap.model->predict(features);
        for (const bool serial : {true, false}) {
            const double storedGot = walk(*stored, serial, features);
            const double freshGot = walk(*fresh, serial, features);
            if (std::bit_cast<uint64_t>(storedGot) !=
                    std::bit_cast<uint64_t>(want) ||
                std::bit_cast<uint64_t>(freshGot) !=
                    std::bit_cast<uint64_t>(want)) {
                std::cerr << path << ": FAIL "
                          << (serial ? "serial" : "blocked")
                          << " walk row " << checked << ": model "
                          << bitHex(want) << " stored "
                          << bitHex(storedGot) << " fresh "
                          << bitHex(freshGot) << "\n";
                return 1;
            }
        }
        ++checked;
    }
    std::printf("  deep:        re-encode identical; %zu row(s) x 2 "
                "walks bit-identical\n",
                checked);
    return 0;
}

int
verify(const std::string &path, bool deep)
{
    MappedFile file;
    if (!file.open(path)) {
        std::cerr << "dac_snap: cannot open " << path << "\n";
        return 1;
    }
    const auto *bytes = static_cast<const uint8_t *>(file.data());
    const auto result = persist::decodeSnapshot(bytes, file.size());
    if (!result.ok()) {
        std::printf("%s: REJECTED (%s): %s\n", path.c_str(),
                    persist::snapshotErrorName(result.error),
                    result.message.c_str());
        return 1;
    }
    if (deep) {
        const int rc =
            deepVerify(path, result.snapshot, bytes, file.size());
        if (rc != 0)
            return rc;
    }
    std::printf("%s: OK%s\n", path.c_str(), deep ? " (deep)" : "");
    return 0;
}

int
list(const std::string &dir)
{
    const auto files = listFilesWithSuffix(dir, persist::kSnapshotSuffix);
    if (files.empty()) {
        std::printf("%s: no %s file(s)\n", dir.c_str(),
                    persist::kSnapshotSuffix);
        return 0;
    }
    int rc = 0;
    for (const auto &name : files) {
        const std::string path = dir + "/" + name;
        const auto result = persist::loadSnapshotFile(path);
        if (!result.ok()) {
            std::printf("%-48s  REJECTED (%s)\n", path.c_str(),
                        persist::snapshotErrorName(result.error));
            rc = 1;
            continue;
        }
        const auto &snap = result.snapshot;
        std::printf("%-48s  %-4s band %d  %-12s err %.2f%%  %zu row(s)\n",
                    path.c_str(), snap.workload.c_str(), snap.sizeBand,
                    snap.model->name().c_str(), snap.modelErrorPct,
                    snap.vectors.size());
    }
    return rc;
}

int
usage()
{
    std::cerr << "usage: dac_snap inspect FILE\n"
              << "       dac_snap verify FILE [--deep]\n"
              << "       dac_snap ls DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool deep = false;
    dac::tools::FlagParser flags;
    flags.defineSwitch("deep", &deep);
    if (!flags.parse(argc, argv)) {
        std::cerr << "dac_snap: bad argument " << flags.badArgument()
                  << "\n";
        return usage();
    }
    const auto &args = flags.positionals();
    if (args.size() != 2)
        return usage();
    const std::string &command = args[0];
    if (command == "inspect")
        return inspect(args[1]);
    if (command == "verify")
        return verify(args[1], deep);
    if (command == "ls")
        return list(args[1]);
    return usage();
}
