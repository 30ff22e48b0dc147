#include "store/pack_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "graph/fingerprint.h"
#include "support/int128.h"

namespace mcr::store {
namespace {

/// Owns the mmap'd file range. Shared by the PackReader and (as the
/// graph's keepalive) every outstanding graph reference; the region is
/// unmapped when the last owner drops.
struct Mapping {
  const unsigned char* base = nullptr;
  std::size_t bytes = 0;

  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
    if (base != nullptr) {
      ::munmap(const_cast<unsigned char*>(base), bytes);
    }
  }
};

[[noreturn]] void fail(PackErrorKind kind, const std::string& path, const std::string& msg) {
  throw PackError(kind, "'" + path + "': " + msg);
}

std::shared_ptr<Mapping> map_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(PackErrorKind::kIo, path, std::strerror(errno));
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(PackErrorKind::kIo, path, std::strerror(err));
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  if (bytes < sizeof(PackHeader)) {
    ::close(fd);
    fail(PackErrorKind::kTruncated, path,
         "file is " + std::to_string(bytes) + " bytes, smaller than the pack header");
  }
  // MAP_SHARED so every attached process shares one page-cache copy of
  // the (read-only) data.
  void* base = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  const int map_err = errno;
  ::close(fd);
  if (base == MAP_FAILED) fail(PackErrorKind::kIo, path, std::strerror(map_err));
  auto mapping = std::make_shared<Mapping>();
  mapping->base = static_cast<const unsigned char*>(base);
  mapping->bytes = bytes;
  return mapping;
}

/// Checked typed view of one section's payload.
template <typename T>
std::span<const T> section_span(const Mapping& mapping, const PackHeader& header,
                                SectionId id, const std::string& path) {
  const SectionEntry& entry = header.sections[static_cast<std::size_t>(id)];
  const std::string name = "section " + std::to_string(entry.id);
  if (entry.id != static_cast<std::uint32_t>(id)) {
    fail(PackErrorKind::kBadSection, path, name + ": id out of order");
  }
  if (entry.bytes == 0) return {};
  if (entry.offset % kSectionAlignment != 0 || entry.offset % alignof(T) != 0) {
    fail(PackErrorKind::kBadSection, path, name + ": misaligned offset");
  }
  if (entry.offset < sizeof(PackHeader) || entry.offset > mapping.bytes ||
      entry.bytes > mapping.bytes - entry.offset) {
    fail(PackErrorKind::kBadSection, path, name + ": extends past end of file");
  }
  if (entry.bytes % sizeof(T) != 0) {
    fail(PackErrorKind::kBadSection, path, name + ": size not a multiple of element size");
  }
  return {reinterpret_cast<const T*>(mapping.base + entry.offset),
          static_cast<std::size_t>(entry.bytes / sizeof(T))};
}

/// One CSR side: offsets monotone over [0, m] and the arc-id array
/// grouped so that key(arc_ids[pos]) == v exactly on [first[v], first[v+1]).
void check_csr(std::span<const std::int32_t> first, std::span<const ArcId> arc_ids,
               std::span<const NodeId> key, std::int32_t num_arcs, const char* what,
               const std::string& path) {
  if (first.front() != 0 || first.back() != num_arcs) {
    fail(PackErrorKind::kBadSection, path, std::string(what) + ": offset array endpoints");
  }
  for (std::size_t v = 0; v + 1 < first.size(); ++v) {
    if (first[v] > first[v + 1] || first[v + 1] > num_arcs) {
      fail(PackErrorKind::kBadSection, path, std::string(what) + ": offsets not monotone");
    }
    for (std::int32_t pos = first[v]; pos < first[v + 1]; ++pos) {
      const ArcId a = arc_ids[static_cast<std::size_t>(pos)];
      if (a < 0 || a >= num_arcs ||
          key[static_cast<std::size_t>(a)] != static_cast<NodeId>(v)) {
        fail(PackErrorKind::kBadSection, path,
             std::string(what) + ": arc ids inconsistent with arc endpoints");
      }
      // Strictly ascending per node, the order Graph's counting sort
      // builds: every arc then appears exactly once, and the driver's
      // in-place solve of a strongly connected pack graph sees the CSR a
      // rebuilt copy would have.
      if (pos > first[v] && a <= arc_ids[static_cast<std::size_t>(pos) - 1]) {
        fail(PackErrorKind::kBadSection, path, std::string(what) + ": arc ids not ascending");
      }
    }
  }
}

}  // namespace

PackReader PackReader::open(const std::string& path) {
  std::shared_ptr<Mapping> mapping = map_file(path);

  PackHeader header;
  std::memcpy(&header, mapping->base, sizeof(header));
  if (std::memcmp(header.magic, kPackMagic, sizeof(kPackMagic)) != 0) {
    fail(PackErrorKind::kBadMagic, path, "not a .mcrpack file");
  }
  if (header.endian_tag != kEndianTag) {
    fail(PackErrorKind::kBadEndianness, path,
         "pack was written on a host with different byte order");
  }
  if (header.format_version != kFormatVersion) {
    fail(PackErrorKind::kBadVersion, path,
         "format version " + std::to_string(header.format_version) + ", reader supports " +
             std::to_string(kFormatVersion));
  }
  if (header.file_bytes != mapping->bytes) {
    fail(PackErrorKind::kTruncated, path,
         "header declares " + std::to_string(header.file_bytes) + " bytes, file has " +
             std::to_string(mapping->bytes));
  }
  if (header.section_count != kSectionCount) {
    fail(PackErrorKind::kBadHeader, path,
         "section count " + std::to_string(header.section_count) + ", expected " +
             std::to_string(kSectionCount));
  }
  if (header.num_nodes < 0 || header.num_arcs < 0 || header.num_components < 0 ||
      header.num_cyclic < 0 || header.num_components > header.num_nodes ||
      header.num_cyclic > header.num_components) {
    fail(PackErrorKind::kBadHeader, path, "negative or inconsistent counts");
  }

  // Whole-file checksum before trusting any section content.
  const std::uint64_t expect =
      pack_checksum(mapping->base, mapping->bytes, checksum_field_offset());
  if (expect != header.checksum) {
    fail(PackErrorKind::kChecksumMismatch, path, "file contents do not match checksum");
  }

  const std::size_t n = static_cast<std::size_t>(header.num_nodes);
  const std::size_t m = static_cast<std::size_t>(header.num_arcs);
  const std::size_t comps = static_cast<std::size_t>(header.num_components);

  const auto src = section_span<NodeId>(*mapping, header, SectionId::kArcSrc, path);
  const auto dst = section_span<NodeId>(*mapping, header, SectionId::kArcDst, path);
  const auto weight = section_span<std::int64_t>(*mapping, header, SectionId::kArcWeight, path);
  const auto transit =
      section_span<std::int64_t>(*mapping, header, SectionId::kArcTransit, path);
  const auto out_first =
      section_span<std::int32_t>(*mapping, header, SectionId::kOutFirst, path);
  const auto out_arcs = section_span<ArcId>(*mapping, header, SectionId::kOutArcs, path);
  const auto in_first =
      section_span<std::int32_t>(*mapping, header, SectionId::kInFirst, path);
  const auto in_arcs = section_span<ArcId>(*mapping, header, SectionId::kInArcs, path);
  const auto component =
      section_span<NodeId>(*mapping, header, SectionId::kSccComponent, path);
  const auto cyclic = section_span<NodeId>(*mapping, header, SectionId::kSccCyclic, path);
  const auto meta =
      section_span<ComponentMeta>(*mapping, header, SectionId::kComponentMeta, path);

  if (src.size() != m || dst.size() != m || weight.size() != m || transit.size() != m ||
      out_arcs.size() != m || in_arcs.size() != m || out_first.size() != n + 1 ||
      in_first.size() != n + 1 || component.size() != n ||
      cyclic.size() != static_cast<std::size_t>(header.num_cyclic) || meta.size() != comps) {
    fail(PackErrorKind::kBadSection, path, "section sizes inconsistent with header counts");
  }

  // The weight range and total transit are re-derived from the arcs,
  // as Graph::finish_build derives them: every width bound starts from
  // them (max_abs_weight, support/int_range.h), so a checksum-valid
  // header that understates them must not reach a solver.
  std::int64_t min_weight = m != 0 ? std::numeric_limits<std::int64_t>::max() : 0;
  std::int64_t max_weight = m != 0 ? std::numeric_limits<std::int64_t>::min() : 0;
  int128 total_transit = 0;
  for (std::size_t a = 0; a < m; ++a) {
    if (src[a] < 0 || src[a] >= header.num_nodes || dst[a] < 0 ||
        dst[a] >= header.num_nodes) {
      fail(PackErrorKind::kBadSection, path, "arc endpoint out of range");
    }
    min_weight = std::min(min_weight, weight[a]);
    max_weight = std::max(max_weight, weight[a]);
    total_transit += transit[a];
  }
  if (min_weight != header.min_weight || max_weight != header.max_weight ||
      total_transit != header.total_transit) {
    fail(PackErrorKind::kBadHeader, path,
         "weight range or total transit disagrees with the arcs");
  }
  check_csr(out_first, out_arcs, src, header.num_arcs, "out CSR", path);
  check_csr(in_first, in_arcs, dst, header.num_arcs, "in CSR", path);
  for (std::size_t v = 0; v < n; ++v) {
    if (component[v] < 0 || component[v] >= header.num_components) {
      fail(PackErrorKind::kBadSection, path, "component id out of range");
    }
  }
  for (std::size_t i = 0; i < cyclic.size(); ++i) {
    if (cyclic[i] < 0 || cyclic[i] >= header.num_components ||
        (i > 0 && cyclic[i] <= cyclic[i - 1])) {
      fail(PackErrorKind::kBadSection, path, "cyclic worklist not ascending in range");
    }
  }

  Graph::ExternalParts parts;
  parts.num_nodes = header.num_nodes;
  parts.src = src;
  parts.dst = dst;
  parts.weight = weight;
  parts.transit = transit;
  parts.out_first = out_first;
  parts.out_arcs = out_arcs;
  parts.in_first = in_first;
  parts.in_arcs = in_arcs;
  parts.min_weight = header.min_weight;
  parts.max_weight = header.max_weight;
  parts.total_transit = header.total_transit;

  Graph g = Graph::adopt_external(parts, mapping);
  g.set_scc_hint(Graph::SccHint{component, header.num_components, cyclic});

  PackReader reader;
  reader.path_ = path;
  reader.header_ = header;
  reader.fingerprint_hex_ =
      Fingerprint{header.fingerprint_hi, header.fingerprint_lo}.hex();
  reader.graph_ = std::make_shared<const Graph>(std::move(g));
  reader.meta_ = meta;
  return reader;
}

}  // namespace mcr::store
