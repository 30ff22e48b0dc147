// Zero-copy attach side of the .mcrpack container.
//
// PackReader::open mmaps the file read-only (MAP_SHARED, so N attached
// processes share one page-cache copy), validates the header, section
// table, whole-file checksum, and the structural invariants of every
// section, then exposes the mapping as a `Graph` the driver and all
// solvers consume unchanged — the graph facade is a real Graph whose
// accessor spans point straight into the mapping, with the pack's
// precomputed SCC decomposition attached as a solve hint.
//
// Lifetime: graph() returns a shared_ptr whose Graph pins the mapping
// via its keepalive, so the PackReader itself may be destroyed — and a
// newer dataset generation published — while in-flight solves still
// hold the old graph. The mapping is unmapped when the last such
// reference drops.
#ifndef MCR_STORE_PACK_READER_H
#define MCR_STORE_PACK_READER_H

#include <memory>
#include <span>
#include <string>

#include "graph/graph.h"
#include "store/format.h"

namespace mcr::store {

class PackReader {
 public:
  /// Maps and validates the pack at `path`. Throws PackError with a
  /// typed kind on any failure; on success every section has been
  /// structurally validated (offsets in bounds and aligned, CSR indices
  /// consistent and ascending per node, component ids in range), so
  /// downstream code can trust the view without further checks.
  [[nodiscard]] static PackReader open(const std::string& path);

  /// The validated header (summaries, fingerprint, section table).
  [[nodiscard]] const PackHeader& header() const { return header_; }

  /// Content fingerprint as 32 lowercase hex chars — identical to
  /// fingerprint_hex() of the equivalent builder-built graph, so
  /// registry and result-cache keys line up across storage backends.
  [[nodiscard]] const std::string& fingerprint_hex() const { return fingerprint_hex_; }

  [[nodiscard]] std::size_t file_bytes() const { return header_.file_bytes; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// The zero-copy graph view (with the pack's SCC hint attached). The
  /// returned pointer — and any copy of it — keeps the mapping alive.
  [[nodiscard]] const std::shared_ptr<const Graph>& graph() const { return graph_; }

  /// Per-component metadata records, component-id order.
  [[nodiscard]] std::span<const ComponentMeta> component_meta() const { return meta_; }

 private:
  PackReader() = default;

  std::string path_;
  PackHeader header_;
  std::string fingerprint_hex_;
  std::shared_ptr<const Graph> graph_;
  std::span<const ComponentMeta> meta_;
};

}  // namespace mcr::store

#endif  // MCR_STORE_PACK_READER_H
