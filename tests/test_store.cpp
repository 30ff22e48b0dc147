// Pack-format stability tests for the zero-copy mmap graph store: a
// graph round-trips through a .mcrpack with every accessor equal,
// repacking the same content is byte-identical (the golden-bytes
// guarantee CI diffs against), corrupted packs are rejected with typed
// errors and never attach, and — the load-bearing property — every
// registered solver returns a bit-identical CycleResult on the mmap'd
// view and the builder-owned original, tiled or not.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/registry.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "graph/builder.h"
#include "graph/fingerprint.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "store/dataset_watcher.h"
#include "store/format.h"
#include "store/pack_reader.h"
#include "store/pack_writer.h"
#include "svc/graph_registry.h"

namespace {

using namespace mcr;

/// A /tmp pack path that cleans up after itself.
struct TempPack {
  TempPack() {
    static std::atomic<int> counter{0};
    path = "/tmp/mcr_store_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".mcrpack";
  }
  ~TempPack() { std::remove(path.c_str()); }
  TempPack(const TempPack&) = delete;
  TempPack& operator=(const TempPack&) = delete;
  std::string path;
};

Graph make_sprand(NodeId n, ArcId m, std::uint64_t seed) {
  gen::SprandConfig cfg;
  cfg.n = n;
  cfg.m = m;
  cfg.min_transit = 1;
  cfg.max_transit = 4;  // non-trivial transit so ratio solvers differ from mean
  cfg.seed = seed;
  return gen::sprand(cfg);
}

Graph make_circuit(NodeId registers, std::uint64_t seed) {
  gen::CircuitConfig cfg;
  cfg.registers = registers;
  cfg.module_size = 8;
  cfg.seed = seed;
  return gen::circuit(cfg);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// Re-seals a mutated pack image so it fails on structure, not on the
/// checksum: recomputes the whole-file checksum and patches the header.
void reseal(std::string& bytes) {
  const std::size_t off = store::checksum_field_offset();
  ASSERT_GE(bytes.size(), off + sizeof(std::uint64_t));
  const std::uint64_t sum = store::pack_checksum(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(), off);
  std::memcpy(bytes.data() + off, &sum, sizeof(sum));
}

store::PackErrorKind open_expecting_error(const std::string& path) {
  try {
    (void)store::PackReader::open(path);
  } catch (const store::PackError& e) {
    return e.kind();
  }
  ADD_FAILURE() << path << " unexpectedly attached";
  return store::PackErrorKind::kIo;
}

// ---------------------------------------------------------------------------
// Round trip.

TEST(PackRoundTrip, EveryAccessorMatchesTheBuilderGraph) {
  for (const Graph& g :
       {make_sprand(60, 180, 7), make_circuit(48, 9), Graph(3, {})}) {
    TempPack pack;
    const store::PackWriteInfo info = store::write_pack(pack.path, g);
    EXPECT_EQ(info.fingerprint, fingerprint_hex(g));

    const store::PackReader reader = store::PackReader::open(pack.path);
    EXPECT_EQ(reader.fingerprint_hex(), fingerprint_hex(g));
    const Graph& p = *reader.graph();
    EXPECT_TRUE(p.is_external());
    EXPECT_FALSE(g.is_external());
    ASSERT_EQ(p.num_nodes(), g.num_nodes());
    ASSERT_EQ(p.num_arcs(), g.num_arcs());
    EXPECT_EQ(p.min_weight(), g.min_weight());
    EXPECT_EQ(p.max_weight(), g.max_weight());
    EXPECT_EQ(p.total_transit(), g.total_transit());
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      ASSERT_EQ(p.src(a), g.src(a));
      ASSERT_EQ(p.dst(a), g.dst(a));
      ASSERT_EQ(p.weight(a), g.weight(a));
      ASSERT_EQ(p.transit(a), g.transit(a));
    }
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto po = p.out_arcs(u);
      const auto go = g.out_arcs(u);
      const auto pi = p.in_arcs(u);
      const auto gi = g.in_arcs(u);
      ASSERT_TRUE(std::equal(po.begin(), po.end(), go.begin(), go.end()));
      ASSERT_TRUE(std::equal(pi.begin(), pi.end(), gi.begin(), gi.end()));
    }
    // The mapped view re-fingerprints to the same content hash, so
    // content addressing is backend-independent.
    EXPECT_EQ(fingerprint_hex(p), fingerprint_hex(g));
    // The pack carries the condensation; the builder graph does not.
    EXPECT_NE(p.scc_hint(), nullptr);
    EXPECT_EQ(g.scc_hint(), nullptr);
  }
}

TEST(PackRoundTrip, GraphOutlivesItsPackReader) {
  TempPack pack;
  const Graph g = make_sprand(40, 120, 3);
  store::write_pack(pack.path, g);
  std::shared_ptr<const Graph> held;
  {
    const store::PackReader reader = store::PackReader::open(pack.path);
    held = reader.graph();
  }  // reader (and its handle on the mapping) gone
  // The graph's keepalive pins the mapping: accessors still work and
  // still agree with the original content.
  EXPECT_EQ(fingerprint_hex(*held), fingerprint_hex(g));
}

TEST(PackRoundTrip, RepackIsByteIdenticalIncludingFromTheMappedView) {
  const Graph g = make_circuit(64, 17);
  TempPack first, second, third;
  store::write_pack(first.path, g);
  store::write_pack(second.path, g);
  const std::string golden = read_file(first.path);
  EXPECT_EQ(golden, read_file(second.path));  // deterministic writer

  // Packing the mmap'd view of the pack reproduces the same bytes:
  // nothing is lost or reordered crossing the storage boundary.
  const store::PackReader reader = store::PackReader::open(first.path);
  store::write_pack(third.path, *reader.graph());
  EXPECT_EQ(golden, read_file(third.path));
}

TEST(PackRoundTrip, ComponentMetaCountsNodesAndIntraArcs) {
  // Two disjoint rings of different sizes: two cyclic components whose
  // meta rows must add up to the whole graph.
  GraphBuilder b(7);
  for (NodeId u = 0; u < 4; ++u) b.add_arc(u, (u + 1) % 4, 1);
  for (NodeId u = 4; u < 7; ++u) b.add_arc(u, u == 6 ? 4 : u + 1, 2);
  const Graph g = b.build();
  TempPack pack;
  const store::PackWriteInfo info = store::write_pack(pack.path, g);
  EXPECT_EQ(info.num_components, 2);
  EXPECT_EQ(info.num_cyclic, 2);
  const store::PackReader reader = store::PackReader::open(pack.path);
  std::int64_t nodes = 0, arcs = 0;
  for (const store::ComponentMeta& cm : reader.component_meta()) {
    EXPECT_EQ(cm.cyclic, 1);
    nodes += cm.nodes;
    arcs += cm.arcs;
  }
  EXPECT_EQ(nodes, g.num_nodes());
  EXPECT_EQ(arcs, g.num_arcs());
}

// ---------------------------------------------------------------------------
// Corruption rejection: every rejection is typed, and a rejected pack
// never yields a reader.

TEST(PackRejection, MissingFileIsIo) {
  EXPECT_EQ(open_expecting_error("/tmp/mcr_store_definitely_absent.mcrpack"),
            store::PackErrorKind::kIo);
}

TEST(PackRejection, TruncationBadMagicBadEndiannessBadVersion) {
  TempPack pack;
  store::write_pack(pack.path, make_sprand(32, 96, 5));
  const std::string golden = read_file(pack.path);

  TempPack mutant;
  write_file(mutant.path, golden.substr(0, 10));  // shorter than the header
  EXPECT_EQ(open_expecting_error(mutant.path), store::PackErrorKind::kTruncated);

  std::string bytes = golden;
  bytes[0] = 'X';
  write_file(mutant.path, bytes);
  EXPECT_EQ(open_expecting_error(mutant.path), store::PackErrorKind::kBadMagic);

  bytes = golden;
  bytes[12] ^= 0x01;  // endian_tag (offset 12): looks byte-swapped
  write_file(mutant.path, bytes);
  EXPECT_EQ(open_expecting_error(mutant.path),
            store::PackErrorKind::kBadEndianness);

  bytes = golden;
  bytes[8] = 0x7f;  // format_version (offset 8): far-future version
  write_file(mutant.path, bytes);
  EXPECT_EQ(open_expecting_error(mutant.path), store::PackErrorKind::kBadVersion);
}

TEST(PackRejection, AnySingleFlippedPayloadByteFailsTheChecksum) {
  TempPack pack;
  store::write_pack(pack.path, make_sprand(32, 96, 6));
  const std::string golden = read_file(pack.path);
  TempPack mutant;
  // Flip one byte in each region: section table, early payload, last byte.
  for (const std::size_t pos :
       {sizeof(store::PackHeader) - 8, sizeof(store::PackHeader) + 70,
        golden.size() - 1}) {
    std::string bytes = golden;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
    write_file(mutant.path, bytes);
    EXPECT_EQ(open_expecting_error(mutant.path),
              store::PackErrorKind::kChecksumMismatch)
        << "flipped byte at " << pos;
  }
}

TEST(PackRejection, StructurallyInvalidButResealedPackIsBadSection) {
  TempPack pack;
  store::write_pack(pack.path, make_sprand(32, 96, 8));
  std::string bytes = read_file(pack.path);
  // Point the first arc's source past num_nodes, then re-seal the
  // checksum: this models a buggy writer, not bit rot, and must still
  // be rejected — by structural validation. The arc_src section is the
  // first payload, at the first aligned offset past the header.
  const std::uint32_t bogus = 0x7fffffff;
  std::memcpy(bytes.data() + store::align_up(sizeof(store::PackHeader)), &bogus,
              sizeof(bogus));
  reseal(bytes);
  TempPack mutant;
  write_file(mutant.path, bytes);
  EXPECT_EQ(open_expecting_error(mutant.path), store::PackErrorKind::kBadSection);
}

TEST(PackRejection, HeaderWeightRangeOrTransitLieIsBadHeader) {
  // The header's weight range and total transit feed every solver's
  // integer-range check; a resealed header that understates them must
  // not attach.
  TempPack pack;
  const Graph g = make_sprand(32, 96, 9);
  store::write_pack(pack.path, g);
  const std::string bytes = read_file(pack.path);
  const auto lie = [&](std::size_t offset, std::int64_t value) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + offset, &value, sizeof(value));
    reseal(mutated);
    TempPack mutant;
    write_file(mutant.path, mutated);
    return open_expecting_error(mutant.path);
  };
  EXPECT_EQ(lie(offsetof(store::PackHeader, max_weight), g.max_weight() - 1),
            store::PackErrorKind::kBadHeader);
  EXPECT_EQ(lie(offsetof(store::PackHeader, min_weight), g.min_weight() + 1),
            store::PackErrorKind::kBadHeader);
  EXPECT_EQ(lie(offsetof(store::PackHeader, total_transit), g.total_transit() - 1),
            store::PackErrorKind::kBadHeader);
}

TEST(PackRejection, CsrArcIdsOutOfOrderOrDuplicatedIsBadSection) {
  // The driver solves a strongly connected graph on its own CSR, so a
  // pack's CSR must be the one Graph's build gives: per node, each arc
  // once, ascending. Resealed lies on one node's out-arcs must not
  // attach, though every id still names an arc leaving that node.
  TempPack pack;
  const Graph g = make_sprand(32, 96, 9);
  store::write_pack(pack.path, g);
  const std::string bytes = read_file(pack.path);
  store::PackHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  NodeId u = 0;
  while (g.out_degree(u) < 2) ++u;
  const std::size_t slot =
      header.sections[static_cast<std::size_t>(store::SectionId::kOutArcs)].offset +
      static_cast<std::size_t>(g.out_first()[static_cast<std::size_t>(u)]) * sizeof(ArcId);
  const auto lie = [&](ArcId first, ArcId second) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + slot, &first, sizeof(first));
    std::memcpy(mutated.data() + slot + sizeof(ArcId), &second, sizeof(second));
    reseal(mutated);
    TempPack mutant;
    write_file(mutant.path, mutated);
    return open_expecting_error(mutant.path);
  };
  const ArcId a = g.out_arcs(u)[0];
  const ArcId b = g.out_arcs(u)[1];
  EXPECT_EQ(lie(b, a), store::PackErrorKind::kBadSection);  // swapped
  EXPECT_EQ(lie(a, a), store::PackErrorKind::kBadSection);  // duplicated, b missing
}

TEST(PackRejection, FileBytesMismatchIsRejectedEvenWhenResealed) {
  TempPack pack;
  store::write_pack(pack.path, make_sprand(32, 96, 9));
  std::string bytes = read_file(pack.path);
  bytes.append(64, '\0');  // grow the file; header file_bytes now lies
  reseal(bytes);
  TempPack mutant;
  write_file(mutant.path, bytes);
  // A size that disagrees with the header is the truncation check, in
  // either direction — it fires before (and regardless of) the checksum.
  EXPECT_EQ(open_expecting_error(mutant.path), store::PackErrorKind::kTruncated);
}

// ---------------------------------------------------------------------------
// The zero-copy contract: solves on the mapped view are bit-identical
// to solves on the builder-owned graph, for every registered solver,
// untiled and tiled.

TEST(PackSolve, BitIdenticalForEveryRegisteredSolverAndTiling) {
  const Graph sprand = make_sprand(24, 72, 11);
  const Graph circuit = make_circuit(24, 13);
  for (const Graph* g : {&sprand, &circuit}) {
    TempPack pack;
    store::write_pack(pack.path, *g);
    const store::PackReader reader = store::PackReader::open(pack.path);
    const Graph& p = *reader.graph();
    for (const std::string& name : SolverRegistry::instance().all_names()) {
      const auto solver = SolverRegistry::instance().create(name);
      for (const std::int32_t tile_arcs : {0, 64}) {
        SolveOptions options;
        options.tile_arcs = tile_arcs;
        const bool ratio = solver->kind() == ProblemKind::kCycleRatio;
        const CycleResult a = ratio
                                  ? minimum_cycle_ratio(*g, *solver, options)
                                  : minimum_cycle_mean(*g, *solver, options);
        const CycleResult b = ratio ? minimum_cycle_ratio(p, *solver, options)
                                    : minimum_cycle_mean(p, *solver, options);
        ASSERT_EQ(a.has_cycle, b.has_cycle) << name << " tile " << tile_arcs;
        EXPECT_EQ(a.value, b.value) << name << " tile " << tile_arcs;
        EXPECT_EQ(a.cycle, b.cycle) << name << " tile " << tile_arcs;
        EXPECT_EQ(a.counters, b.counters) << name << " tile " << tile_arcs;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DatasetWatcher: generations, pinning, and failure atomicity.

TEST(DatasetWatcher, PublishesGenerationsAndKeepsOldSnapshotsAlive) {
  TempPack a, b;
  store::write_pack(a.path, make_sprand(30, 90, 21));
  store::write_pack(b.path, make_sprand(40, 120, 22));

  store::DatasetWatcher watcher;
  EXPECT_EQ(watcher.current(), nullptr);
  const auto gen1 = watcher.attach(a.path);
  EXPECT_EQ(gen1->generation, 1u);
  EXPECT_EQ(gen1->path, a.path);
  const auto gen2 = watcher.attach(b.path);
  EXPECT_EQ(gen2->generation, 2u);
  EXPECT_NE(gen1->fingerprint, gen2->fingerprint);
  EXPECT_EQ(watcher.current()->generation, 2u);

  // The old snapshot (an in-flight solve's view) still works after the
  // swap — and even after its pack file is deleted from disk.
  std::remove(a.path.c_str());
  EXPECT_EQ(fingerprint_hex(*gen1->graph), gen1->fingerprint);
}

TEST(DatasetWatcher, FailedAttachLeavesCurrentGenerationServing) {
  TempPack a, corrupt;
  store::write_pack(a.path, make_sprand(30, 90, 23));
  store::DatasetWatcher watcher;
  const auto gen1 = watcher.attach(a.path);

  std::string bytes = read_file(a.path);
  bytes[bytes.size() - 1] ^= 0x01;
  write_file(corrupt.path, bytes);
  EXPECT_THROW((void)watcher.attach(corrupt.path), store::PackError);
  ASSERT_NE(watcher.current(), nullptr);
  EXPECT_EQ(watcher.current()->generation, 1u);
  EXPECT_EQ(watcher.current()->fingerprint, gen1->fingerprint);

  // The generation after a failure is still the next integer: failed
  // attaches do not burn generation numbers.
  const auto gen2 = watcher.attach(a.path);
  EXPECT_EQ(gen2->generation, 2u);
}

// ---------------------------------------------------------------------------
// Registry byte accounting by backing.

TEST(GraphRegistryBytes, GaugesRiseAndFallByBackingKind) {
  TempPack pack;
  const Graph g = make_sprand(50, 150, 31);
  store::write_pack(pack.path, g);
  const store::PackReader reader = store::PackReader::open(pack.path);

  obs::MetricsRegistry metrics;
  svc::GraphRegistry registry(2, &metrics);
  const std::string builder_gauge =
      obs::labeled_name("mcr_graph_bytes", {{"backing", "builder"}});
  const std::string mmap_gauge =
      obs::labeled_name("mcr_graph_bytes", {{"backing", "mmap"}});

  registry.add(make_sprand(50, 150, 32));
  const std::uint64_t builder_resident = registry.builder_bytes();
  EXPECT_GT(builder_resident, 0u);
  EXPECT_EQ(registry.mmap_bytes(), 0u);

  registry.add_shared(reader.fingerprint_hex(), reader.graph());
  EXPECT_EQ(registry.builder_bytes(), builder_resident);
  const std::uint64_t mmap_resident = registry.mmap_bytes();
  EXPECT_GT(mmap_resident, 0u);
  EXPECT_EQ(metrics.gauge(builder_gauge).value(),
            static_cast<std::int64_t>(builder_resident));
  EXPECT_EQ(metrics.gauge(mmap_gauge).value(),
            static_cast<std::int64_t>(mmap_resident));

  // Two more builder graphs evict the original builder entry and then
  // the mmap entry (capacity 2, LRU): each eviction gives its bytes
  // back to the right backing total.
  registry.add(make_sprand(60, 180, 33));
  registry.add(make_sprand(70, 210, 34));
  EXPECT_EQ(registry.mmap_bytes(), 0u);
  EXPECT_EQ(metrics.gauge(mmap_gauge).value(), 0);
  EXPECT_EQ(metrics.gauge(builder_gauge).value(),
            static_cast<std::int64_t>(registry.builder_bytes()));
  EXPECT_EQ(registry.size(), 2u);
}

}  // namespace
