#include "graph/partition.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <string>

#include "common/codec.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"

namespace imr {

const std::vector<int64_t>& Partitioner::affinity() const {
  static const std::vector<int64_t> kEmpty;
  return kEmpty;
}

namespace {

class HashPartitioner final : public Partitioner {
 public:
  explicit HashPartitioner(uint32_t parts) : parts_(parts) {
    IMR_CHECK_MSG(parts_ >= 1, "partitioner needs >= 1 partition");
  }
  const char* name() const override { return "hash"; }
  uint32_t num_partitions() const override { return parts_; }
  uint32_t partition(BytesView key) const override {
    return partition_of(key, parts_);
  }

 private:
  uint32_t parts_;
};

// Vertex-map partitioner backing both the BFS grower and the file loader:
// 4-byte keys are decoded as vertex ids and looked up in the assignment;
// anything else (aux keys, foreign key spaces) falls back to the hash so
// every key still has a stable home.
class VertexPartitioner final : public Partitioner {
 public:
  VertexPartitioner(const char* name, std::vector<uint32_t> assignment,
                    uint32_t parts, std::vector<int64_t> affinity)
      : name_(name),
        assignment_(std::move(assignment)),
        parts_(parts),
        affinity_(std::move(affinity)) {
    IMR_CHECK_MSG(parts_ >= 1, "partitioner needs >= 1 partition");
  }
  const char* name() const override { return name_; }
  uint32_t num_partitions() const override { return parts_; }
  uint32_t partition(BytesView key) const override {
    if (key.size() == 4) {
      const uint32_t u = as_u32(key);
      if (u < assignment_.size()) return assignment_[u];
    }
    return partition_of(key, parts_);
  }
  const std::vector<int64_t>& affinity() const override { return affinity_; }

 private:
  const char* name_;
  std::vector<uint32_t> assignment_;
  uint32_t parts_;
  std::vector<int64_t> affinity_;
};

std::vector<int64_t> compute_affinity(const Graph& g,
                                      const std::vector<uint32_t>& assignment,
                                      uint32_t parts) {
  std::vector<int64_t> aff(static_cast<std::size_t>(parts) * parts, 0);
  const uint32_t n = g.num_nodes();
  for (uint32_t u = 0; u < n; ++u) {
    for (const WEdge& e : g.adj[u]) {
      if (e.dst >= n) continue;
      ++aff[static_cast<std::size_t>(assignment[u]) * parts +
            assignment[e.dst]];
    }
  }
  return aff;
}

// Seed vertex for a new region: a few seeded draws, then the lowest
// unassigned vertex. `next_probe` advances monotonically so the fallback
// scan is O(n) over the whole run.
uint32_t pick_region_seed(Rng& rng, const std::vector<uint32_t>& part,
                          uint32_t unassigned_mark, uint32_t n,
                          uint32_t& next_probe) {
  for (int tries = 0; tries < 8; ++tries) {
    auto c = static_cast<uint32_t>(rng.uniform(n));
    if (part[c] == unassigned_mark) return c;
  }
  while (part[next_probe] != unassigned_mark) ++next_probe;
  return next_probe;
}

std::vector<uint32_t> grow_bfs_regions(const Graph& g, uint32_t parts,
                                       uint64_t seed) {
  const uint32_t n = g.num_nodes();
  IMR_CHECK_MSG(n >= parts, "fewer vertices than partitions");

  // Undirected neighbor view: region growth should follow edges in either
  // direction, since both directions cost shuffle bytes.
  std::vector<std::vector<uint32_t>> nbr(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (const WEdge& e : g.adj[u]) {
      if (e.dst == u || e.dst >= n) continue;
      nbr[u].push_back(e.dst);
      nbr[e.dst].push_back(u);
    }
  }
  for (auto& v : nbr) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }

  std::vector<uint32_t> part(n, parts);  // `parts` marks unassigned
  Rng rng(seed);
  uint32_t assigned = 0;
  uint32_t next_probe = 0;
  for (uint32_t p = 0; p < parts && assigned < n; ++p) {
    // Spread the remainder so every region is within one vertex of n/parts.
    const uint32_t remaining_parts = parts - p;
    const uint32_t cap = (n - assigned + remaining_parts - 1) / remaining_parts;
    uint32_t size = 0;
    std::deque<uint32_t> frontier;
    while (size < cap && assigned < n) {
      if (frontier.empty()) {
        // New component (or fresh region): seed and keep growing.
        const uint32_t s =
            pick_region_seed(rng, part, parts, n, next_probe);
        part[s] = p;
        ++assigned;
        ++size;
        frontier.push_back(s);
        continue;
      }
      const uint32_t u = frontier.front();
      frontier.pop_front();
      for (uint32_t v : nbr[u]) {
        if (part[v] != parts) continue;
        part[v] = p;
        ++assigned;
        ++size;
        frontier.push_back(v);
        if (size >= cap) break;
      }
    }
  }
  return part;
}

}  // namespace

std::shared_ptr<const Partitioner> make_hash_partitioner(
    uint32_t num_partitions) {
  return std::make_shared<HashPartitioner>(num_partitions);
}

std::shared_ptr<const Partitioner> make_bfs_partitioner(const Graph& g,
                                                        uint32_t num_partitions,
                                                        uint64_t seed) {
  std::vector<uint32_t> assignment = grow_bfs_regions(g, num_partitions, seed);
  std::vector<int64_t> aff = compute_affinity(g, assignment, num_partitions);
  return std::make_shared<VertexPartitioner>("bfs", std::move(assignment),
                                             num_partitions, std::move(aff));
}

std::shared_ptr<const Partitioner> make_file_partitioner(
    std::vector<uint32_t> assignment, const Graph& g, uint32_t num_partitions) {
  if (assignment.size() != g.num_nodes()) {
    throw ConfigError("partition assignment covers " +
                      std::to_string(assignment.size()) +
                      " vertices, graph has " +
                      std::to_string(g.num_nodes()));
  }
  for (uint32_t p : assignment) {
    if (p >= num_partitions) {
      throw ConfigError("partition assignment names partition " +
                        std::to_string(p) + ", job has " +
                        std::to_string(num_partitions));
    }
  }
  std::vector<int64_t> aff = compute_affinity(g, assignment, num_partitions);
  return std::make_shared<VertexPartitioner>("file", std::move(assignment),
                                             num_partitions, std::move(aff));
}

std::vector<uint32_t> load_partition_file(const std::string& path,
                                          uint32_t num_vertices) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open partition file: " + path);
  std::vector<uint32_t> assignment;
  assignment.reserve(num_vertices);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    uint32_t v = 0;
    if (!parse_int_strict(
            std::string_view(line).substr(first, last - first + 1), v)) {
      throw ConfigError(path + ":" + std::to_string(lineno) +
                        ": bad partition id '" + line + "'");
    }
    assignment.push_back(v);
  }
  if (assignment.size() != num_vertices) {
    throw ConfigError("partition file " + path + " covers " +
                      std::to_string(assignment.size()) +
                      " vertices, expected " + std::to_string(num_vertices));
  }
  return assignment;
}

void write_partition_file(const std::string& path,
                          const std::vector<uint32_t>& assignment) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write partition file: " + path);
  for (uint32_t p : assignment) out << p << "\n";
  if (!out) throw Error("short write to partition file: " + path);
}

int64_t edge_cut(const Graph& g, const Partitioner& p) {
  const uint32_t n = g.num_nodes();
  std::vector<uint32_t> part(n);
  for (uint32_t u = 0; u < n; ++u) part[u] = p.partition(u32_key(u));
  int64_t cut = 0;
  for (uint32_t u = 0; u < n; ++u) {
    for (const WEdge& e : g.adj[u]) {
      if (e.dst < n && part[e.dst] != part[u]) ++cut;
    }
  }
  return cut;
}

std::vector<int64_t> partition_sizes(const Graph& g, const Partitioner& p) {
  std::vector<int64_t> sizes(p.num_partitions(), 0);
  const uint32_t n = g.num_nodes();
  for (uint32_t u = 0; u < n; ++u) ++sizes[p.partition(u32_key(u))];
  return sizes;
}

double balance_factor(const std::vector<int64_t>& sizes) {
  if (sizes.empty()) return 1.0;
  int64_t max = 0, total = 0;
  for (int64_t s : sizes) {
    max = std::max(max, s);
    total += s;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(sizes.size());
  return static_cast<double>(max) / mean;
}

}  // namespace imr
