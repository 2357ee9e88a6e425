// imr_stat — offline analyzer for iteration-telemetry JSONL files.
//
//   imr_stat <telemetry.jsonl> [--top N] [--validate]
//
// Reads the JSONL a telemetry-armed run exports (imr_run --telemetry PATH
// or IMR_TELEMETRY=<path>; see docs/OBSERVABILITY.md for the schema) and
// prints placement advice per recorded run:
//
//   - the Fig-11 traffic totals per category, re-derived from the sparse
//     worker x worker matrix and cross-checked against the run line's
//     "traffic" summary (a mismatch means the file is corrupt or the
//     producer broke conservation);
//   - the cross-worker edge cut — bytes that crossed a worker boundary —
//     and the heaviest remote edges, the first places a placement change
//     would claw bandwidth back;
//   - heavy-hitter shuffle keys from the merged SpaceSaving sketches, with
//     their count-error bars and the sketch's N/k admission bound;
//   - per-partition record counts and the skew coefficient
//     (max partition / mean partition);
//   - the per-iteration critical path: virtual-time cost of each decided
//     iteration with its map/reduce split and the straggler that gated it;
//   - a straggler ranking (how often each task/worker was the slowest
//     reporter) — a worker that dominates this table is the one to speed
//     up or unload;
//   - the memory-footprint trajectory: resident reduce-state bytes per
//     iteration on top of the static (in-memory StaticStore) baseline.
//
// --validate runs schema, conservation and iteration-ledger checks only and
// exits non-zero on the first malformed or non-conserving file; CI uses it
// to gate telemetry regressions. --top N widens the hot-key / edge /
// iteration tables (default 10).
//
// The parser below is a deliberately small recursive-descent JSON reader —
// the tool must stay dependency-free and build anywhere the simulator does.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strings.h"

using imr::human_bytes;
using imr::parse_int_strict;
using imr::strprintf;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (objects, arrays, strings,
// doubles, bools, null). Throws std::runtime_error with a byte offset on
// malformed input.

struct JValue {
  enum class Type { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<JValue> arr;
  std::map<std::string, JValue> obj;

  bool is_obj() const { return type == Type::kObj; }
  bool is_arr() const { return type == Type::kArr; }
  bool is_num() const { return type == Type::kNum; }
  bool is_str() const { return type == Type::kStr; }

  const JValue* find(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  // Required-field accessors: throw on absence or type mismatch so that
  // --validate reports schema drift instead of misreading zeros.
  const JValue& at(const std::string& key) const {
    const JValue* v = find(key);
    if (v == nullptr) throw std::runtime_error("missing field \"" + key + "\"");
    return *v;
  }
  double num_at(const std::string& key) const {
    const JValue& v = at(key);
    if (!v.is_num()) throw std::runtime_error("field \"" + key + "\" not a number");
    return v.num;
  }
  int64_t int_at(const std::string& key) const {
    return static_cast<int64_t>(num_at(key));
  }
  const std::string& str_at(const std::string& key) const {
    const JValue& v = at(key);
    if (!v.is_str()) throw std::runtime_error("field \"" + key + "\" not a string");
    return v.str;
  }
  const std::vector<JValue>& arr_at(const std::string& key) const {
    const JValue& v = at(key);
    if (!v.is_arr()) throw std::runtime_error("field \"" + key + "\" not an array");
    return v.arr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JValue parse() {
    JValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing data");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(what + " at byte " + std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // The exporter nests three levels at most; the cap keeps a hostile
        // line from recursing the parser off the stack.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        JValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return parse_string();
      case 't': case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JValue parse_object() {
    expect('{');
    JValue v;
    v.type = JValue::Type::kObj;
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skip_ws();
      JValue key = parse_string();
      skip_ws();
      expect(':');
      v.obj.emplace(std::move(key.str), parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JValue parse_array() {
    expect('[');
    JValue v;
    v.type = JValue::Type::kArr;
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JValue parse_string() {
    expect('"');
    JValue v;
    v.type = JValue::Type::kStr;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return v;
      if (c != '\\') { v.str.push_back(c); continue; }
      if (pos_ >= s_.size()) fail("dangling escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': v.str.push_back('"'); break;
        case '\\': v.str.push_back('\\'); break;
        case '/': v.str.push_back('/'); break;
        case 'b': v.str.push_back('\b'); break;
        case 'f': v.str.push_back('\f'); break;
        case 'n': v.str.push_back('\n'); break;
        case 'r': v.str.push_back('\r'); break;
        case 't': v.str.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The exporter only emits \u00XX for control / non-ASCII bytes;
          // reconstruct the raw byte (no UTF-16 surrogate handling needed).
          v.str.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JValue parse_bool() {
    JValue v;
    v.type = JValue::Type::kBool;
    if (s_.compare(pos_, 4, "true") == 0) { v.boolean = true; pos_ += 4; }
    else if (s_.compare(pos_, 5, "false") == 0) { v.boolean = false; pos_ += 5; }
    else fail("bad literal");
    return v;
  }

  JValue parse_null() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JValue{};
  }

  JValue parse_number() {
    std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    JValue v;
    v.type = JValue::Type::kNum;
    char* end = nullptr;
    const std::string tok = s_.substr(start, pos_ - start);
    v.num = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') fail("bad number");
    return v;
  }

  static constexpr int kMaxDepth = 64;
  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// ---------------------------------------------------------------------------
// Telemetry model: one run line plus the iter lines that preceded it.

constexpr int kNumCats = 9;
const char* const kCatNames[kNumCats] = {
    "shuffle", "reduce_to_map", "broadcast", "dfs_read", "dfs_write",
    "checkpoint", "control", "shuffle_agg", "spill"};

struct Run {
  JValue line;                 // the "run" object
  std::vector<JValue> iters;   // its "iter" objects, in export order
};

struct ParsedFile {
  std::vector<Run> runs;
};

ParsedFile parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  ParsedFile file;
  std::vector<JValue> pending_iters;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JValue v;
    try {
      v = JsonParser(line).parse();
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
    if (!v.is_obj()) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": line is not a JSON object");
    }
    const std::string& type = v.str_at("type");
    if (type == "iter") {
      pending_iters.push_back(std::move(v));
    } else if (type == "run") {
      Run r;
      r.line = std::move(v);
      r.iters = std::move(pending_iters);
      pending_iters.clear();
      file.runs.push_back(std::move(r));
    } else {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": unknown record type \"" + type + "\"");
    }
  }
  if (!pending_iters.empty()) {
    throw std::runtime_error(path + ": " +
                             std::to_string(pending_iters.size()) +
                             " iter record(s) with no closing run record");
  }
  return file;
}

int cat_index(const std::string& name) {
  for (int c = 0; c < kNumCats; ++c) {
    if (name == kCatNames[c]) return c;
  }
  return -1;
}

// Per-category totals re-derived from the sparse matrix cells.
struct MatrixSums {
  int64_t bytes[kNumCats] = {};
  int64_t remote[kNumCats] = {};
  int64_t msgs[kNumCats] = {};
};

MatrixSums sum_matrix(const Run& run) {
  MatrixSums sums;
  for (const JValue& cell : run.line.arr_at("matrix")) {
    if (!cell.is_arr() || cell.arr.size() != 5) {
      throw std::runtime_error("matrix cell is not a 5-tuple");
    }
    const int from = static_cast<int>(cell.arr[0].num);
    const int to = static_cast<int>(cell.arr[1].num);
    const int c = cat_index(cell.arr[2].str);
    if (c < 0) throw std::runtime_error("matrix cell names unknown category");
    const int64_t bytes = static_cast<int64_t>(cell.arr[3].num);
    const int64_t msgs = static_cast<int64_t>(cell.arr[4].num);
    sums.bytes[c] += bytes;
    sums.msgs[c] += msgs;
    if (from != to) sums.remote[c] += bytes;
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Validation: schema shape, matrix/traffic conservation and the iteration
// ledger. Returns violation strings; empty = clean.

std::vector<std::string> validate_run(const Run& run) {
  std::vector<std::string> bad;
  const JValue& r = run.line;
  const int64_t workers = r.int_at("workers");
  const int64_t tasks = r.int_at("tasks");
  if (workers <= 0) bad.push_back("run: non-positive worker count");
  if (tasks <= 0) bad.push_back("run: non-positive task count");
  r.str_at("job");
  r.int_at("iterations_run");
  r.int_at("session_epochs");
  r.int_at("hot_key_samples");
  r.int_at("static_bytes");
  r.num_at("skew");

  // Matrix cells in range; sums reproduce the run's traffic summary.
  for (const JValue& cell : r.arr_at("matrix")) {
    if (!cell.is_arr() || cell.arr.size() != 5) {
      bad.push_back("run: matrix cell is not a [from,to,cat,bytes,msgs] tuple");
      continue;
    }
    const int from = static_cast<int>(cell.arr[0].num);
    const int to = static_cast<int>(cell.arr[1].num);
    if (from < -1 || from >= workers || to < -1 || to >= workers) {
      bad.push_back(strprintf("run: matrix edge %d->%d outside [-1, %lld)",
                              from, to, static_cast<long long>(workers)));
    }
    if (cell.arr[3].num < 0 || cell.arr[4].num < 0) {
      bad.push_back(strprintf("run: matrix edge %d->%d has negative counts",
                              from, to));
    }
  }
  MatrixSums sums;
  try {
    sums = sum_matrix(run);
  } catch (const std::exception& e) {
    bad.push_back(std::string("run: ") + e.what());
    return bad;
  }
  const JValue& traffic = r.at("traffic");
  if (!traffic.is_obj()) {
    bad.push_back("run: \"traffic\" is not an object");
    return bad;
  }
  for (int c = 0; c < kNumCats; ++c) {
    const JValue* cat = traffic.find(kCatNames[c]);
    if (cat == nullptr || !cat->is_obj()) {
      bad.push_back(strprintf("run: traffic summary missing category %s",
                              kCatNames[c]));
      continue;
    }
    const int64_t tb = cat->int_at("bytes");
    const int64_t tr = cat->int_at("remote");
    const int64_t tm = cat->int_at("msgs");
    if (tb != sums.bytes[c] || tr != sums.remote[c] || tm != sums.msgs[c]) {
      bad.push_back(strprintf(
          "run: traffic[%s] summary (%lld/%lld/%lld) != matrix sums "
          "(%lld/%lld/%lld)",
          kCatNames[c], static_cast<long long>(tb),
          static_cast<long long>(tr), static_cast<long long>(tm),
          static_cast<long long>(sums.bytes[c]),
          static_cast<long long>(sums.remote[c]),
          static_cast<long long>(sums.msgs[c])));
    }
    if (tr > tb) {
      bad.push_back(strprintf("run: traffic[%s] remote %lld exceeds total %lld",
                              kCatNames[c], static_cast<long long>(tr),
                              static_cast<long long>(tb)));
    }
    // Locality ratio (local / total bytes) must land in [0, 1]; outside it
    // means a negative remote count or remote > total slipped through.
    if (tb > 0) {
      const double loc =
          static_cast<double>(tb - tr) / static_cast<double>(tb);
      if (loc < 0.0 || loc > 1.0) {
        bad.push_back(strprintf("run: traffic[%s] locality ratio %.3f "
                                "outside [0, 1]",
                                kCatNames[c], loc));
      }
    }
  }

  // Hot keys: sketch counts are bounded by the sample total and errors by
  // their counts.
  const int64_t samples = r.int_at("hot_key_samples");
  for (const JValue& hk : r.arr_at("hot_keys")) {
    const int64_t count = hk.int_at("count");
    const int64_t error = hk.int_at("error");
    hk.str_at("key");
    if (count < 0 || error < 0 || error > count || count > samples) {
      bad.push_back(strprintf(
          "run: hot key count/error (%lld/%lld) outside [0, samples %lld]",
          static_cast<long long>(count), static_cast<long long>(error),
          static_cast<long long>(samples)));
    }
  }

  if (static_cast<int64_t>(r.arr_at("static_bytes_per_task").size()) != 0 &&
      static_cast<int64_t>(r.arr_at("static_bytes_per_task").size()) != tasks) {
    bad.push_back("run: static_bytes_per_task length != tasks");
  }

  // Spill ledger conservation (invariant 11, re-checked offline): every
  // byte and run written was either read back (merged / replayed) or
  // dropped (rollback GC, torn writes, end-of-run sweeps).
  const JValue* spill = r.find("spill");
  if (spill == nullptr || !spill->is_obj()) {
    bad.push_back("run: missing \"spill\" object");
  } else {
    const int64_t sw = spill->int_at("bytes_written");
    const int64_t sr = spill->int_at("bytes_read");
    const int64_t sd = spill->int_at("bytes_dropped");
    const int64_t runs = spill->int_at("runs");
    const int64_t hwm = spill->int_at("arena_hwm");
    if (sw < 0 || sr < 0 || sd < 0 || runs < 0 || hwm < 0) {
      bad.push_back("run: negative spill counter");
    }
    if (sw != sr + sd) {
      bad.push_back(strprintf(
          "run: spill ledger not conserved: %lld written != %lld read + "
          "%lld dropped",
          static_cast<long long>(sw), static_cast<long long>(sr),
          static_cast<long long>(sd)));
    }
    if (sw > 0 && runs == 0) {
      bad.push_back("run: spill bytes written but zero runs recorded");
    }
  }

  // Iter lines: fixed-shape arrays, categories all present, straggler in
  // range, per-iteration sums bounded by the run totals.
  int64_t iter_bytes[kNumCats] = {};
  for (const JValue& it : run.iters) {
    const int64_t iter = it.int_at("iteration");
    it.num_at("vt_ms");
    it.num_at("map_ms");
    it.num_at("reduce_ms");
    it.int_at("workset");
    it.int_at("queue_hwm");
    if (static_cast<int64_t>(it.arr_at("task_ms").size()) != tasks ||
        static_cast<int64_t>(it.arr_at("state_bytes").size()) != tasks) {
      bad.push_back(strprintf("iter %lld: task arrays != %lld tasks",
                              static_cast<long long>(iter),
                              static_cast<long long>(tasks)));
    }
    const JValue& straggler = it.at("straggler");
    const int64_t s_task = straggler.int_at("task");
    const int64_t s_worker = straggler.int_at("worker");
    if (s_task < -1 || s_task >= tasks || s_worker < -1 ||
        s_worker >= workers) {
      bad.push_back(strprintf("iter %lld: straggler task %lld / worker %lld "
                              "out of range",
                              static_cast<long long>(iter),
                              static_cast<long long>(s_task),
                              static_cast<long long>(s_worker)));
    }
    for (int c = 0; c < kNumCats; ++c) {
      const int64_t b = it.at("bytes").int_at(kCatNames[c]);
      const int64_t m = it.at("msgs").int_at(kCatNames[c]);
      if (b < 0 || m < 0) {
        bad.push_back(strprintf("iter %lld: negative %s traffic",
                                static_cast<long long>(iter), kCatNames[c]));
      }
      iter_bytes[c] += b;
    }
  }
  // Iteration ledger (invariant 5, re-checked offline): within a session the
  // iter lines step by exactly one iteration, even across a rollback; a
  // session boundary resumes above the drain, so across it the session and
  // the iteration only advance.
  for (std::size_t n = 1; n < run.iters.size(); ++n) {
    const int64_t prev = run.iters[n - 1].int_at("iteration");
    const int64_t cur = run.iters[n].int_at("iteration");
    const int64_t prev_sess = run.iters[n - 1].int_at("session");
    const int64_t cur_sess = run.iters[n].int_at("session");
    if (cur_sess < prev_sess ||
        (cur_sess == prev_sess ? cur != prev + 1 : cur <= prev)) {
      bad.push_back(strprintf("iter ledger steps from iteration %lld "
                              "(session %lld) to %lld (session %lld)",
                              static_cast<long long>(prev),
                              static_cast<long long>(prev_sess),
                              static_cast<long long>(cur),
                              static_cast<long long>(cur_sess)));
    }
  }
  // The per-iteration buckets only see fabric sends issued inside decided
  // iterations, so their category sums can never exceed the matrix totals
  // (which also cover init/teardown traffic).
  for (int c = 0; c < kNumCats; ++c) {
    if (iter_bytes[c] > sums.bytes[c]) {
      bad.push_back(strprintf(
          "run: per-iteration %s bytes %lld exceed matrix total %lld",
          kCatNames[c], static_cast<long long>(iter_bytes[c]),
          static_cast<long long>(sums.bytes[c])));
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Summary printing.

std::string hb(int64_t v) {
  return v < 0 ? "-" + human_bytes(static_cast<std::size_t>(-v))
               : human_bytes(static_cast<std::size_t>(v));
}

std::string endpoint_name(int w) {
  return w < 0 ? std::string("master") : "w" + std::to_string(w);
}

// Shuffle keys are raw wire bytes (graph jobs use fixed-width binary node
// ids); show printable keys verbatim and everything else as hex.
std::string printable_key(const std::string& key) {
  bool printable = !key.empty();
  for (char c : key) {
    if (c < 0x20 || c >= 0x7f) { printable = false; break; }
  }
  if (printable) return key;
  std::string out = "0x";
  for (char c : key) {
    out += strprintf("%02x", static_cast<unsigned char>(c));
  }
  return out;
}

void print_run(const Run& run, int top) {
  const JValue& r = run.line;
  const int64_t workers = r.int_at("workers");
  const int64_t tasks = r.int_at("tasks");
  std::printf("run \"%s\": %lld workers, %lld tasks, %lld iterations%s, "
              "%lld session epoch(s)\n",
              r.str_at("job").c_str(), static_cast<long long>(workers),
              static_cast<long long>(tasks),
              static_cast<long long>(r.int_at("iterations_run")),
              r.at("converged").boolean ? " (converged)" : "",
              static_cast<long long>(r.int_at("session_epochs")));

  // Traffic totals (the Fig-11 categories) with the conservation verdict.
  const MatrixSums sums = sum_matrix(run);
  const JValue& traffic = r.at("traffic");
  std::printf(
      "\n  traffic (total / remote / msgs / locality)  matrix check\n");
  int64_t total_bytes = 0, total_remote = 0;
  for (int c = 0; c < kNumCats; ++c) {
    const JValue& cat = traffic.at(kCatNames[c]);
    const int64_t tb = cat.int_at("bytes");
    const int64_t tr = cat.int_at("remote");
    const int64_t tm = cat.int_at("msgs");
    total_bytes += tb;
    total_remote += tr;
    if (tb == 0 && tm == 0) continue;
    const bool ok = tb == sums.bytes[c] && tr == sums.remote[c] &&
                    tm == sums.msgs[c];
    // Locality ratio: share of the category's bytes that stayed on-worker.
    std::printf("    %-13s %10s / %10s / %-6lld loc %.2f  %s\n", kCatNames[c],
                hb(tb).c_str(), hb(tr).c_str(), static_cast<long long>(tm),
                tb > 0 ? static_cast<double>(tb - tr) /
                             static_cast<double>(tb)
                       : 1.0,
                ok ? "conserved" : "MISMATCH");
  }
  std::printf("    %-13s %10s / %10s", "total", hb(total_bytes).c_str(),
              hb(total_remote).c_str());
  if (total_bytes > 0) {
    std::printf("          loc %.2f",
                static_cast<double>(total_bytes - total_remote) /
                    static_cast<double>(total_bytes));
  }
  std::printf("\n");

  // Edge cut: worker->worker off-diagonal bytes, master excluded (control
  // traffic is placement-insensitive).
  std::map<std::pair<int, int>, int64_t> edges;
  int64_t edge_cut = 0;
  for (const JValue& cell : r.arr_at("matrix")) {
    const int from = static_cast<int>(cell.arr[0].num);
    const int to = static_cast<int>(cell.arr[1].num);
    const int64_t bytes = static_cast<int64_t>(cell.arr[3].num);
    if (from == to || bytes == 0) continue;
    edges[{from, to}] += bytes;
    if (from >= 0 && to >= 0) edge_cut += bytes;
  }
  std::printf("\n  cross-worker edge cut: %s", hb(edge_cut).c_str());
  if (total_bytes > 0) {
    std::printf(" (%.1f%% of all traffic)",
                100.0 * static_cast<double>(edge_cut) /
                    static_cast<double>(total_bytes));
  }
  std::printf("\n");
  std::vector<std::pair<std::pair<int, int>, int64_t>> ranked(edges.begin(),
                                                              edges.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (int n = 0; n < static_cast<int>(ranked.size()) && n < top; ++n) {
    std::printf("    %-6s -> %-6s %10s\n",
                endpoint_name(ranked[static_cast<std::size_t>(n)].first.first)
                    .c_str(),
                endpoint_name(ranked[static_cast<std::size_t>(n)].first.second)
                    .c_str(),
                hb(ranked[static_cast<std::size_t>(n)].second).c_str());
  }

  // Hot keys. The SpaceSaving sketch guarantees every key with frequency
  // > N/k is present, with per-key over-count error <= N/k.
  const std::vector<JValue>& hot = r.arr_at("hot_keys");
  const int64_t samples = r.int_at("hot_key_samples");
  if (!hot.empty() && samples > 0) {
    const int64_t bound =
        samples / std::max<int64_t>(1, static_cast<int64_t>(hot.size()));
    std::printf("\n  hot shuffle keys (of %lld samples; admission bound "
                "N/k = %lld):\n",
                static_cast<long long>(samples),
                static_cast<long long>(bound));
    for (int n = 0; n < static_cast<int>(hot.size()) && n < top; ++n) {
      const JValue& hk = hot[static_cast<std::size_t>(n)];
      const int64_t count = hk.int_at("count");
      const int64_t error = hk.int_at("error");
      std::printf("    %-24s %8lld (±%lld, %.2f%% of shuffle)\n",
                  printable_key(hk.str_at("key")).c_str(),
                  static_cast<long long>(count),
                  static_cast<long long>(error),
                  100.0 * static_cast<double>(count) /
                      static_cast<double>(samples));
    }
  }
  const std::vector<JValue>& parts = r.arr_at("partition_records");
  if (!parts.empty()) {
    int64_t max_part = 0, sum_part = 0;
    for (const JValue& p : parts) {
      max_part = std::max(max_part, static_cast<int64_t>(p.num));
      sum_part += static_cast<int64_t>(p.num);
    }
    const double mean_part = static_cast<double>(sum_part) /
                             static_cast<double>(parts.size());
    std::printf("  partition skew: %.3f (max %lld vs mean %.1f over %d "
                "partitions)\n",
                r.num_at("skew"), static_cast<long long>(max_part),
                mean_part, static_cast<int>(parts.size()));
    if (mean_part > 0) {
      // Balance factor (max/mean shuffle records per partition): 1.0 is a
      // perfectly even split; the partitioner tests bound it at 1.1.
      std::printf("  partition balance factor: %.3f (max/mean)\n",
                  static_cast<double>(max_part) / mean_part);
    }
  }

  if (run.iters.empty()) return;

  // Critical path: each decided iteration's virtual-time cost (delta of the
  // decision clock), its map/reduce split, and the straggler that gated it.
  struct IterCost {
    int64_t iteration;
    int64_t session;
    double cost_ms;
    double map_ms;
    double reduce_ms;
    int64_t s_task;
    int64_t s_worker;
    double s_ms;
  };
  std::vector<IterCost> costs;
  double prev_vt = 0.0;
  int64_t prev_session = -1;
  double total_ms = 0.0;
  for (const JValue& it : run.iters) {
    const int64_t session = it.int_at("session");
    const double vt = it.num_at("vt_ms");
    // vt_ms is the cluster clock at decision time; a session boundary (or a
    // rollback re-run) restarts the delta chain.
    double cost = vt - prev_vt;
    if (session != prev_session || cost < 0) cost = vt;
    prev_vt = vt;
    prev_session = session;
    const JValue& s = it.at("straggler");
    costs.push_back(IterCost{it.int_at("iteration"), session, cost,
                             it.num_at("map_ms"), it.num_at("reduce_ms"),
                             s.int_at("task"), s.int_at("worker"),
                             s.num_at("ms")});
    total_ms += cost;
  }
  std::vector<const IterCost*> slowest;
  for (const IterCost& c : costs) slowest.push_back(&c);
  std::sort(slowest.begin(), slowest.end(),
            [](const IterCost* a, const IterCost* b) {
              return a->cost_ms > b->cost_ms;
            });
  std::printf("\n  critical path: %.1f virtual ms over %d decided "
              "iterations (slowest first):\n",
              total_ms, static_cast<int>(costs.size()));
  for (int n = 0; n < static_cast<int>(slowest.size()) && n < top; ++n) {
    const IterCost& c = *slowest[static_cast<std::size_t>(n)];
    std::printf("    iter %-4lld %8.1f ms  (map %6.1f, reduce %6.1f",
                static_cast<long long>(c.iteration), c.cost_ms, c.map_ms,
                c.reduce_ms);
    if (c.s_task >= 0) {
      std::printf(", straggler task %lld on %s at %.1f ms",
                  static_cast<long long>(c.s_task),
                  endpoint_name(static_cast<int>(c.s_worker)).c_str(), c.s_ms);
    }
    std::printf(")\n");
  }

  // Straggler ranking: who gated the most iterations.
  std::map<std::pair<int64_t, int64_t>, int64_t> gate_counts;
  for (const IterCost& c : costs) {
    if (c.s_task >= 0) gate_counts[{c.s_worker, c.s_task}] += 1;
  }
  if (!gate_counts.empty()) {
    std::vector<std::pair<std::pair<int64_t, int64_t>, int64_t>> gates(
        gate_counts.begin(), gate_counts.end());
    std::sort(gates.begin(), gates.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    std::printf("  straggler ranking (iterations gated):\n");
    for (int n = 0; n < static_cast<int>(gates.size()) && n < top; ++n) {
      const auto& g = gates[static_cast<std::size_t>(n)];
      std::printf("    %-6s task %-4lld gated %lld/%d iterations\n",
                  endpoint_name(static_cast<int>(g.first.first)).c_str(),
                  static_cast<long long>(g.first.second),
                  static_cast<long long>(g.second),
                  static_cast<int>(costs.size()));
    }
  }

  // Memory trajectory: resident reduce state per iteration on top of the
  // static baseline.
  const int64_t static_bytes = r.int_at("static_bytes");
  int64_t first_state = -1, last_state = 0, peak_state = 0;
  int64_t peak_iter = 0;
  for (const JValue& it : run.iters) {
    int64_t state = 0;
    for (const JValue& b : it.arr_at("state_bytes")) {
      state += static_cast<int64_t>(b.num);
    }
    if (first_state < 0) first_state = state;
    last_state = state;
    if (state > peak_state) {
      peak_state = state;
      peak_iter = it.int_at("iteration");
    }
  }
  std::printf("  memory: static stores %s; reduce state %s -> %s "
              "(peak %s at iter %lld)\n",
              hb(static_bytes).c_str(), hb(std::max<int64_t>(0, first_state)).c_str(),
              hb(last_state).c_str(), hb(peak_state).c_str(),
              static_cast<long long>(peak_iter));

  // Out-of-core activity (DESIGN.md §10): spill volume, the ledger verdict,
  // the largest per-task footprint, and the amplification ratio — spilled
  // bytes over DFS input bytes, i.e. how many extra I/O bytes the budget
  // cost per input byte (0 = everything fit in memory).
  const JValue* spill = r.find("spill");
  if (spill != nullptr && spill->is_obj()) {
    const int64_t sw = spill->int_at("bytes_written");
    const int64_t sr = spill->int_at("bytes_read");
    const int64_t sd = spill->int_at("bytes_dropped");
    const int64_t runs = spill->int_at("runs");
    const int64_t hwm = spill->int_at("arena_hwm");
    if (sw > 0 || hwm > 0) {
      std::printf("  spill: %s written / %s read / %s dropped over %lld "
                  "run(s)  %s\n",
                  hb(sw).c_str(), hb(sr).c_str(), hb(sd).c_str(),
                  static_cast<long long>(runs),
                  sw == sr + sd ? "ledger conserved" : "LEDGER MISMATCH");
      if (hwm > 0) {
        std::printf("  task memory high-water mark: %s\n", hb(hwm).c_str());
      }
      const int64_t input_bytes =
          sum_matrix(run).bytes[cat_index("dfs_read")];
      if (sw > 0 && input_bytes > 0) {
        std::printf("  spill amplification: %.2fx of %s DFS input\n",
                    static_cast<double>(sw) /
                        static_cast<double>(input_bytes),
                    hb(input_bytes).c_str());
      }
      // Per-worker spill I/O from the traffic matrix — the workers whose
      // tasks ran hottest against the budget.
      std::map<int, int64_t> by_worker;
      for (const JValue& cell : r.arr_at("matrix")) {
        if (cell.arr[2].str != "spill") continue;
        by_worker[static_cast<int>(cell.arr[0].num)] +=
            static_cast<int64_t>(cell.arr[3].num);
      }
      for (const auto& [w, bytes] : by_worker) {
        if (bytes > 0) {
          std::printf("    %-6s spill i/o %10s\n", endpoint_name(w).c_str(),
                      hb(bytes).c_str());
        }
      }
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: imr_stat <telemetry.jsonl> [--top N] [--validate]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  int top = 10;
  bool validate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate") {
      validate = true;
    } else if (arg == "--top") {
      if (i + 1 >= argc) return usage();
      if (!parse_int_strict(argv[++i], top) || top <= 0) return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  ParsedFile file;
  try {
    file = parse_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "imr_stat: %s\n", e.what());
    return 1;
  }
  if (file.runs.empty()) {
    std::fprintf(stderr, "imr_stat: %s holds no run records\n", path.c_str());
    return 1;
  }

  int bad_runs = 0;
  for (std::size_t n = 0; n < file.runs.size(); ++n) {
    const Run& run = file.runs[n];
    std::vector<std::string> violations;
    try {
      violations = validate_run(run);
    } catch (const std::exception& e) {
      violations.push_back(e.what());
    }
    if (validate) {
      if (violations.empty()) {
        std::printf("run %d (\"%s\"): ok — %d iter record(s), matrix "
                    "conserved\n",
                    static_cast<int>(n),
                    run.line.find("job") != nullptr &&
                            run.line.at("job").is_str()
                        ? run.line.str_at("job").c_str()
                        : "?",
                    static_cast<int>(run.iters.size()));
      } else {
        ++bad_runs;
        for (const std::string& v : violations) {
          std::fprintf(stderr, "run %d: %s\n", static_cast<int>(n), v.c_str());
        }
      }
      continue;
    }
    if (n > 0) std::printf("\n");
    try {
      print_run(run, top);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "imr_stat: run %d: %s\n", static_cast<int>(n),
                   e.what());
      return 1;
    }
    for (const std::string& v : violations) {
      std::fprintf(stderr, "  warning: %s\n", v.c_str());
    }
  }
  return bad_runs > 0 ? 1 : 0;
}
