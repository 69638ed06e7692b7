#include "web/js.hpp"

#include <charconv>
#include <stdexcept>

#include "util/strings.hpp"

namespace parcel::web {

namespace {

/// Extract the first quoted string in `s`, or empty.
std::string_view first_quoted(std::string_view s) {
  for (char quote : {'"', '\''}) {
    std::size_t open = s.find(quote);
    if (open == std::string_view::npos) continue;
    std::size_t close = s.find(quote, open + 1);
    if (close == std::string_view::npos) continue;
    return s.substr(open + 1, close - open - 1);
  }
  return {};
}

double parse_number(std::string_view s, std::string_view stmt) {
  s = util::trim(s);
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{}) {
    throw std::invalid_argument("MiniJs: bad number in: " + std::string(stmt));
  }
  (void)ptr;
  return value;
}

}  // namespace

JsProgram MiniJs::run(std::string_view code) {
  JsProgram prog;
  // Line walk over `code` in place; splits exactly where util::split(code,
  // '\n') would, so a trailing newline or an empty input yields a final
  // empty line (skipped below).
  for (std::size_t start = 0; start <= code.size();) {
    std::size_t nl = code.find('\n', start);
    if (nl == std::string_view::npos) nl = code.size();
    std::string_view line = util::trim(code.substr(start, nl - start));
    start = nl + 1;
    if (line.empty() || line.starts_with("//")) continue;
    // Statement parsing cost: even boilerplate costs a little.
    prog.work_units += 0.01;

    if (line.starts_with("compute(")) {
      std::size_t close = line.find(')');
      if (close == std::string_view::npos) {
        throw std::invalid_argument("MiniJs: unterminated compute()");
      }
      prog.work_units += parse_number(line.substr(8, close - 8), line);
      continue;
    }
    if (line.starts_with("fetch(")) {
      std::string_view url = first_quoted(line);
      if (url.empty()) throw std::invalid_argument("MiniJs: fetch needs url");
      prog.references.push_back(
          Reference{url, infer_type(url, ObjectType::kJson), false, false});
      continue;
    }
    if (line.starts_with("fetchRand(")) {
      std::string_view url = first_quoted(line);
      if (url.empty()) {
        throw std::invalid_argument("MiniJs: fetchRand needs url");
      }
      prog.references.push_back(
          Reference{url, infer_type(url, ObjectType::kJson), false, true});
      continue;
    }
    if (line.starts_with("loadScript(")) {
      std::string_view url = first_quoted(line);
      if (url.empty()) {
        throw std::invalid_argument("MiniJs: loadScript needs url");
      }
      prog.references.push_back(
          Reference{url, ObjectType::kJs, false, false});
      continue;
    }
    if (line.starts_with("loadScriptAsync(")) {
      std::string_view url = first_quoted(line);
      if (url.empty()) {
        throw std::invalid_argument("MiniJs: loadScriptAsync needs url");
      }
      prog.references.push_back(
          Reference{url, ObjectType::kJsAsync, true, false});
      continue;
    }
    if (line.starts_with("document.write(")) {
      // The written markup contains at most one src attribute.
      std::size_t src = util::ifind(line, "src=");
      if (src != std::string_view::npos) {
        std::string_view rest = line.substr(src + 4);
        // The outer quote of document.write differs from the inner one.
        std::string_view url = first_quoted(rest);
        if (!url.empty()) {
          prog.references.push_back(Reference{
              url, infer_type(url, ObjectType::kImage), false, false});
        }
      }
      continue;
    }
    if (line.starts_with("onClick(")) {
      std::size_t comma = line.find(',');
      if (comma == std::string_view::npos) {
        throw std::invalid_argument("MiniJs: onClick needs (index, url)");
      }
      int idx = static_cast<int>(parse_number(line.substr(8, comma - 8), line));
      std::string_view url = first_quoted(line.substr(comma));
      if (url.empty()) throw std::invalid_argument("MiniJs: onClick needs url");
      prog.click_handlers.push_back(JsClickHandler{idx, url});
      // Handlers register cheaply; running one on a click costs more —
      // browsers charge that at interaction time.
      continue;
    }
    if (line.starts_with("var ") || line.ends_with(";")) {
      // Generic statement: tiny fixed cost already charged above.
      continue;
    }
    throw std::invalid_argument("MiniJs: unrecognized statement: " +
                                std::string(line));
  }
  return prog;
}

}  // namespace parcel::web
