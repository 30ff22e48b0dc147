// mcr_gen — generate benchmark instances in the extended DIMACS format.
//
//   mcr_gen sprand  --n 512 --m 1024 [--wmin 1] [--wmax 10000]
//                   [--tmin 1] [--tmax 1] [--seed 1] [--out FILE]
//   mcr_gen circuit --n 512 [--module 32] [--fanout 150]  # fanout in %
//                   [--seed 1] [--out FILE]
//   mcr_gen ring    --n 64 [--wmin 1] [--wmax 100] [--seed 1] [--out FILE]
//   mcr_gen torus   --rows 8 --cols 8 [--wmin 1] [--wmax 100] [--seed 1]
//
// Without --out the graph is written to stdout.
#include <fstream>
#include <functional>
#include <iostream>

#include "cli.h"
#include "gen/spec.h"
#include "graph/io.h"
#include "obs/build_info.h"

int main(int argc, char** argv) {
  using namespace mcr;
  try {
    const cli::Options opt = cli::parse(argc, argv);
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_gen");
      return 0;
    }
    if (opt.positional.size() != 1) {
      std::cerr << "usage: mcr_gen <sprand|circuit|ring|torus> [options] [--out FILE]\n";
      return 2;
    }
    const Graph g = gen::generate(opt.positional[0],
                                    std::bind_front(&cli::Options::get_int, &opt));
    const std::string comment = "mcr_gen " + opt.positional[0] + " n=" +
                                std::to_string(g.num_nodes()) + " m=" +
                                std::to_string(g.num_arcs());
    if (opt.has("out")) {
      save_dimacs(opt.get("out"), g, comment);
      std::cerr << "wrote " << opt.get("out") << " (" << g.num_nodes() << " nodes, "
                << g.num_arcs() << " arcs)\n";
    } else {
      write_dimacs(std::cout, g, comment);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mcr_gen: " << e.what() << "\n";
    return 1;
  }
}
