// layer-violation: enforce the declared layering DAG over the include
// graph.  lint.rules declares layers as path-prefix sets and sanctions
// directed edges:
//
//   layer base = src/util
//   layer net  = src/net
//   allow-dep net -> base
//
// A quoted include whose target lands in a different layer is an error
// unless the edge (or a transitive chain of declared edges) sanctions it.
// Include cycles between files are reported under the same rule — a cycle
// is a layering violation no matter which layers it crosses.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "internal.hpp"
#include "lint.hpp"

namespace parcel::lint {
namespace {

std::string dirname(const std::string& path) {
  auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// Resolve a quoted include against the known file set the way the build
// does: relative to the including file's directory first, then the
// conventional roots.  Unresolvable targets (system headers spelled with
// quotes, generated files) are skipped rather than guessed at.
std::string resolve_include(const std::string& includer,
                            const std::string& target,
                            const std::set<std::string>& known_files) {
  std::vector<std::string> candidates;
  const std::string dir = dirname(includer);
  if (!dir.empty()) candidates.push_back(dir + "/" + target);
  candidates.push_back("src/" + target);
  candidates.push_back(target);
  for (const std::string& c : candidates) {
    if (known_files.count(c) > 0) return c;
  }
  return std::string();
}

struct Edge {
  std::string from;
  std::string to;
  int line = 0;
};

}  // namespace

void check_layers(const ProgramIndex& index, const Config& config,
                  const std::set<std::string>& known_files, FileReport& rep) {
  if (config.layers.empty()) return;

  // Resolve every live (non-suppressed) include edge once; the same edge
  // list feeds both the DAG check and cycle detection.
  std::vector<Edge> edges;
  std::map<const ProgramIndex::FileEntry*, bool> reportable;
  std::map<std::string, const ProgramIndex::FileEntry*> by_path;
  for (const ProgramIndex::FileEntry& fe : index.files) {
    by_path[fe.file.rel_path] = &fe;
  }
  for (const ProgramIndex::FileEntry& fe : index.files) {
    for (const IncludeDirective& inc : fe.file.lex->includes) {
      if (internal::suppression_covers(*fe.file.lex, "layer-violation",
                                       inc.line)) {
        continue;
      }
      const std::string target =
          resolve_include(fe.file.rel_path, inc.path, known_files);
      if (target.empty() || target == fe.file.rel_path) continue;
      edges.push_back({fe.file.rel_path, target, inc.line});
    }
  }

  // Pass 1: every edge must stay inside its layer or follow a sanctioned
  // allow-dep chain.  Files outside any declared layer are unconstrained.
  for (const Edge& e : edges) {
    const ProgramIndex::FileEntry* fe = by_path[e.from];
    if (fe == nullptr || !fe->file.reportable) continue;
    if (!config.applies("layer-violation", e.from)) continue;
    const std::string from_layer = config.layer_of(e.from);
    const std::string to_layer = config.layer_of(e.to);
    if (from_layer.empty() || to_layer.empty()) continue;
    if (config.dep_allowed(from_layer, to_layer)) continue;
    rep.findings.push_back(
        {e.from, e.line, "layer-violation",
         "include \"" + e.to + "\" reaches layer '" + to_layer +
             "' from layer '" + from_layer +
             "', which the layer DAG does not sanction; declare "
             "'allow-dep " + from_layer + " -> " + to_layer +
             "' in lint.rules only if the direction is truly intended"});
  }

  // Pass 2: file-level include cycles.  Iterative DFS with tri-state
  // marks over the resolved edges; each cycle is reported once, at the
  // lexicographically smallest member so the diagnostic is stable.
  std::map<std::string, std::vector<std::size_t>> out_edges;
  std::set<std::string> nodes;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    out_edges[edges[i].from].push_back(i);
    nodes.insert(edges[i].from);
    nodes.insert(edges[i].to);
  }
  std::map<std::string, int> state;  // 0 unvisited, 1 in-stack, 2 done
  std::set<std::vector<std::string>> reported_cycles;
  for (const std::string& start : nodes) {
    if (state[start] != 0) continue;
    std::vector<std::pair<std::string, std::size_t>> stack = {{start, 0}};
    state[start] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      std::vector<std::size_t>& out = out_edges[node];
      if (next >= out.size()) {
        state[node] = 2;
        stack.pop_back();
        continue;
      }
      const Edge& e = edges[out[next++]];
      if (state[e.to] == 1) {
        // Unwind the stack to recover the cycle members.
        std::vector<std::string> cycle;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          cycle.push_back(it->first);
          if (it->first == e.to) break;
        }
        std::reverse(cycle.begin(), cycle.end());
        // Canonical rotation: start at the smallest path.
        auto min_it = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), min_it, cycle.end());
        if (!reported_cycles.insert(cycle).second) continue;
        const std::string& anchor = cycle.front();
        const ProgramIndex::FileEntry* fe = by_path[anchor];
        if (fe == nullptr || !fe->file.reportable) continue;
        if (!config.applies("layer-violation", anchor)) continue;
        // Line: the anchor's include of the next cycle member.
        int line = 1;
        const std::string& succ = cycle.size() > 1 ? cycle[1] : anchor;
        for (std::size_t ei : out_edges[anchor]) {
          if (edges[ei].to == succ) {
            line = edges[ei].line;
            break;
          }
        }
        std::string path;
        for (const std::string& member : cycle) path += member + " -> ";
        path += anchor;
        rep.findings.push_back({anchor, line, "layer-violation",
                                "include cycle: " + path});
        continue;
      }
      if (state[e.to] == 0) {
        state[e.to] = 1;
        stack.emplace_back(e.to, 0);
      }
    }
  }
}

}  // namespace parcel::lint
