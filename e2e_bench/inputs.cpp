// Seeded inputs and the certified answer oracle.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/registry.h"
#include "core/verify.h"
#include "e2e.h"
#include "gen/sprand.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "graph/transforms.h"
#include "svc/protocol.h"
#include "svc/result_json.h"

namespace e2e {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * static_cast<double>(sample.size())), 1.0,
                 static_cast<double>(sample.size())) -
      1.0);
  std::nth_element(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(rank),
                   sample.end());
  return sample[rank];
}

std::vector<Instance> generate(const Family& family, std::size_t count, mcr::Prng& rng,
                               bool with_dimacs) {
  std::vector<Instance> out(count);
  for (Instance& in : out) {
    in.seed = rng.fork_seed();
    mcr::gen::SprandConfig cfg;
    cfg.n = family.n;
    cfg.m = family.m;
    cfg.max_transit = family.max_transit;
    cfg.seed = in.seed;
    auto g = std::make_shared<const mcr::Graph>(mcr::gen::sprand(cfg));
    in.fingerprint = mcr::fingerprint_hex(*g);
    if (with_dimacs) {
      std::ostringstream os;
      mcr::write_dimacs(os, *g);
      in.dimacs = os.str();
    }
    in.graph = std::move(g);
  }
  return out;
}

mcr::CycleResult solve(const mcr::Graph& g, const std::string& objective,
                       const std::string& algo, const mcr::SolveOptions& options) {
  const auto solver = mcr::SolverRegistry::instance().create(algo);
  if (objective == "min_mean") return mcr::minimum_cycle_mean(g, *solver, options);
  if (objective == "max_mean") return mcr::maximum_cycle_mean(g, *solver, options);
  if (objective == "min_ratio") return mcr::minimum_cycle_ratio(g, *solver, options);
  if (objective == "max_ratio") return mcr::maximum_cycle_ratio(g, *solver, options);
  throw std::invalid_argument("unknown objective " + objective);
}

namespace {

void certify(const Instance& in, const Query& q, const mcr::CycleResult& r) {
  const bool ratio = q.objective.ends_with("ratio");
  const auto kind = ratio ? mcr::ProblemKind::kCycleRatio : mcr::ProblemKind::kCycleMean;
  mcr::VerifyOutcome outcome;
  if (q.objective.starts_with("max")) {
    // A maximum is the negated minimum of the weight-negated graph.
    mcr::CycleResult negated = r;
    negated.value = -r.value;
    outcome = mcr::verify_result(mcr::negate_weights(*in.graph), negated, kind);
  } else {
    outcome = mcr::verify_result(*in.graph, r, kind);
  }
  if (!r.has_cycle || !outcome.ok) {
    throw std::runtime_error("reference " + q.algo + "/" + q.objective +
                             " fails its certificate on the instance with seed " +
                             std::to_string(in.seed) + ": " + outcome.message);
  }
}

}  // namespace

std::vector<Answer> oracle(const std::vector<Instance>& instances,
                           const std::vector<Query>& queries, int threads) {
  std::vector<Answer> answers(queries.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto work = [&] {
    for (std::size_t i = next++; i < queries.size(); i = next++) {
      try {
        const Query& q = queries[i];
        const Instance& in = instances[q.instance];
        Answer& a = answers[i];
        a.result = solve(*in.graph, q.objective, q.algo);
        certify(in, q, a.result);
        a.prefix = mcr::svc::result_json(a.result, q.algo, q.objective, 0.0);
        a.prefix.resize(a.prefix.rfind(",\"milliseconds\":"));
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
        next = queries.size();
      }
    }
  };
  std::vector<std::jthread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  pool.clear();
  if (error) std::rethrow_exception(error);
  return answers;
}

std::string load_payload(const Instance& in) {
  return R"({"verb":"LOAD","dimacs":")" + mcr::svc::json_escape(in.dimacs) + "\"}";
}

std::string solve_fp_payload(const Instance& in, const std::string& objective) {
  return R"({"verb":"SOLVE","fingerprint":")" + in.fingerprint + R"(","objective":")" +
         objective + "\"}";
}

std::string solve_dimacs_payload(const Instance& in, const std::string& objective) {
  return R"({"verb":"SOLVE","dimacs":")" + mcr::svc::json_escape(in.dimacs) +
         R"(","objective":")" + objective + "\"}";
}

bool solve_matches(std::string_view response, const Answer& answer, bool* cached) {
  if (response.find(R"("status":"ok")") == std::string_view::npos) return false;
  *cached = response.find(R"("cached":true)") != std::string_view::npos;
  const std::string_view key = R"("result":)";
  const std::size_t at = response.find(key);
  return at != std::string_view::npos &&
         response.substr(at + key.size()).starts_with(answer.prefix) &&
         response.substr(at + key.size() + answer.prefix.size())
             .starts_with(",\"milliseconds\":");
}

bool load_matches(std::string_view response, const std::string& fingerprint) {
  return response.find(R"("status":"ok")") != std::string_view::npos &&
         response.find("\"fingerprint\":\"" + fingerprint + "\"") != std::string_view::npos;
}

}  // namespace e2e
