#include "support/op_counters.h"

#include <sstream>

namespace mcr {

OpCounters& OpCounters::operator+=(const OpCounters& o) {
  for (const OpCounterField& f : kOpCounterFields) this->*f.member += o.*f.member;
  return *this;
}

std::string OpCounters::summary() const {
  std::ostringstream os;
  bool first = true;
  const auto emit = [&](const char* name, std::uint64_t v) {
    if (v == 0) return;
    if (!first) os << ", ";
    os << name << "=" << v;
    first = false;
  };
  emit("iters", iterations);
  emit("arc_scans", arc_scans);
  emit("relax", relaxations);
  emit("visits", node_visits);
  emit("heap_ins", heap_inserts);
  emit("heap_dec", heap_decrease_keys);
  emit("heap_del", heap_delete_mins);
  emit("feas", feasibility_checks);
  emit("cyc_eval", cycle_evaluations);
  emit("promotions", numeric_promotions);
  if (first) os << "(none)";
  return os.str();
}

}  // namespace mcr
