#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lint.hpp"

namespace parcel::lint {

const std::vector<std::string>& all_rule_ids() {
  static const std::vector<std::string> kIds = {
      "nondet-random",        // std::random_device, rand(), srand(), ...
      "nondet-time",          // time(), clock(), std::chrono wall clocks
      "nondet-getenv",        // getenv outside sanctioned directories
      "nondet-transitive",    // calling a helper that transitively reaches
                              // a nondeterminism source (DESIGN.md §14)
      "unordered-iter",       // iterating unordered containers in
                              // result/trace-affecting TUs
      "layer-violation",      // include edge outside the declared layer
                              // DAG, or an include cycle
      "mutex-unannotated",    // mutex member without PARCEL_GUARDED_BY use
      "header-pragma-once",   // headers must open with #pragma once
      "header-using-namespace",  // no `using namespace` in headers
      "float-double-drift",   // float in energy/byte accounting paths
      "lint-suppression",     // malformed/unexplained allow(...) comments
  };
  return kIds;
}

bool is_known_rule(const std::string& id) {
  const auto& ids = all_rule_ids();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

bool Config::applies(const std::string& rule,
                     const std::string& rel_path) const {
  auto it = rules.find(rule);
  const RuleConfig def;
  const RuleConfig& rc = it == rules.end() ? def : it->second;
  if (!rc.enabled) return false;
  auto has_prefix = [&](const std::string& prefix) {
    return rel_path.rfind(prefix, 0) == 0;
  };
  if (!rc.scope.empty() &&
      std::none_of(rc.scope.begin(), rc.scope.end(), has_prefix)) {
    return false;
  }
  return std::none_of(rc.exempt.begin(), rc.exempt.end(), has_prefix);
}

std::string Config::layer_of(const std::string& rel_path) const {
  // Longest prefix wins, so a single file can be carved out of its
  // directory's layer (src/core/leaf.hpp -> base while src/core -> core).
  std::size_t best_len = 0;
  std::string best;
  for (const LayerSpec& layer : layers) {
    for (const std::string& prefix : layer.prefixes) {
      if (rel_path.rfind(prefix, 0) == 0 && prefix.size() >= best_len) {
        best_len = prefix.size();
        best = layer.name;
      }
    }
  }
  return best;
}

bool Config::dep_allowed(const std::string& from,
                         const std::string& to) const {
  if (from == to) return true;
  // Reachability over the declared edges: `allow-dep a -> b` sanctions a
  // direct dependency, and a layer may always use whatever its sanctioned
  // dependencies themselves depend on.
  std::set<std::string> seen = {from};
  std::vector<std::string> frontier = {from};
  while (!frontier.empty()) {
    std::string cur = std::move(frontier.back());
    frontier.pop_back();
    for (const auto& [a, b] : allow_deps) {
      if (a != cur || !seen.insert(b).second) continue;
      if (b == to) return true;
      frontier.push_back(b);
    }
  }
  return false;
}

namespace {

bool valid_layer_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

bool layer_declared(const Config& cfg, const std::string& name) {
  return std::any_of(cfg.layers.begin(), cfg.layers.end(),
                     [&](const LayerSpec& l) { return l.name == name; });
}

// The allow-dep graph must be a DAG: a cycle would make "upward" include
// directions meaningless.  Iterative DFS with tri-state marks.
bool allow_deps_cyclic(const Config& cfg, std::string& witness) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [a, b] : cfg.allow_deps) adj[a].push_back(b);
  std::map<std::string, int> state;  // 0 unvisited, 1 in-stack, 2 done
  for (const auto& [start, unused] : adj) {
    (void)unused;
    if (state[start] != 0) continue;
    std::vector<std::pair<std::string, std::size_t>> stack = {{start, 0}};
    state[start] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const std::vector<std::string>& out = adj[node];
      if (next >= out.size()) {
        state[node] = 2;
        stack.pop_back();
        continue;
      }
      const std::string& succ = out[next++];
      if (state[succ] == 1) {
        witness = succ;
        return true;
      }
      if (state[succ] == 0) {
        state[succ] = 1;
        stack.emplace_back(succ, 0);
      }
    }
  }
  return false;
}

}  // namespace

bool parse_config(const std::string& text, Config& out, std::string& error) {
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    auto hash = raw.find('#');
    std::string body = hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream ls(body);
    std::string verb;
    if (!(ls >> verb)) continue;  // blank / comment-only line

    if (verb == "layer") {
      // layer <name> = <prefix>...
      std::string name, eq;
      if (!(ls >> name >> eq) || eq != "=") {
        error = "lint.rules:" + std::to_string(lineno) +
                ": expected 'layer <name> = <prefix>...', got '" + raw + "'";
        return false;
      }
      if (!valid_layer_name(name)) {
        error = "lint.rules:" + std::to_string(lineno) +
                ": invalid layer name '" + name + "'";
        return false;
      }
      if (layer_declared(out, name)) {
        error = "lint.rules:" + std::to_string(lineno) +
                ": duplicate layer '" + name + "'";
        return false;
      }
      LayerSpec spec;
      spec.name = name;
      std::string prefix;
      while (ls >> prefix) spec.prefixes.push_back(prefix);
      if (spec.prefixes.empty()) {
        error = "lint.rules:" + std::to_string(lineno) + ": 'layer " + name +
                " =' needs at least one path prefix";
        return false;
      }
      out.layers.push_back(std::move(spec));
      continue;
    }

    if (verb == "allow-dep") {
      // allow-dep <a> -> <b>
      std::string a, arrow, b, extra;
      if (!(ls >> a >> arrow >> b) || arrow != "->" || (ls >> extra)) {
        error = "lint.rules:" + std::to_string(lineno) +
                ": expected 'allow-dep <layer> -> <layer>', got '" + raw +
                "'";
        return false;
      }
      for (const std::string& name : {a, b}) {
        if (!layer_declared(out, name)) {
          error = "lint.rules:" + std::to_string(lineno) +
                  ": allow-dep names undeclared layer '" + name +
                  "' (declare layers before their edges)";
          return false;
        }
      }
      out.allow_deps.emplace_back(a, b);
      std::string witness;
      if (allow_deps_cyclic(out, witness)) {
        error = "lint.rules:" + std::to_string(lineno) +
                ": allow-dep edges form a cycle through layer '" + witness +
                "'; the layering must be a DAG";
        return false;
      }
      continue;
    }

    std::string id, eq;
    if (!(ls >> id >> eq) || eq != "=") {
      error = "lint.rules:" + std::to_string(lineno) +
              ": expected '<verb> <rule> = ...', got '" + raw + "'";
      return false;
    }
    if (!is_known_rule(id)) {
      error = "lint.rules:" + std::to_string(lineno) + ": unknown rule '" +
              id + "'";
      return false;
    }
    RuleConfig& rc = out.rules[id];  // default-constructs enabled rule
    if (verb == "rule") {
      std::string state;
      if (!(ls >> state) || (state != "on" && state != "off")) {
        error = "lint.rules:" + std::to_string(lineno) +
                ": 'rule " + id + " =' needs 'on' or 'off'";
        return false;
      }
      rc.enabled = state == "on";
    } else if (verb == "scope" || verb == "exempt") {
      std::vector<std::string>& dst = verb == "scope" ? rc.scope : rc.exempt;
      std::string path;
      bool any = false;
      while (ls >> path) {
        dst.push_back(path);
        any = true;
      }
      if (!any) {
        error = "lint.rules:" + std::to_string(lineno) + ": '" + verb + " " +
                id + " =' needs at least one path prefix";
        return false;
      }
    } else {
      error = "lint.rules:" + std::to_string(lineno) + ": unknown verb '" +
              verb + "' (expected rule/scope/exempt/layer/allow-dep)";
      return false;
    }
  }
  return true;
}

bool load_config(const std::string& path, Config& out, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open config file '" + path + "'";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_config(ss.str(), out, error);
}

}  // namespace parcel::lint
