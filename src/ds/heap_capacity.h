// Capacity check shared by the addressable heaps in src/ds.
#ifndef MCR_DS_HEAP_CAPACITY_H
#define MCR_DS_HEAP_CAPACITY_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mcr::detail {

/// A heap's capacity as a container size. Called in the member
/// initializers, so a negative capacity throws std::invalid_argument
/// before any array is sized.
inline std::size_t heap_capacity(std::int32_t capacity, const char* heap) {
  if (capacity < 0) throw std::invalid_argument(std::string(heap) + ": negative capacity");
  return static_cast<std::size_t>(capacity);
}

}  // namespace mcr::detail

#endif  // MCR_DS_HEAP_CAPACITY_H
