// tdt_refsim — the benchmark's own reference model. It shares no code
// with the library: it parses the Gleipnir text form itself, simulates a
// set-associative LRU/FIFO write-back/write-allocate cache with its own
// fully-associative shadow for the compulsory/capacity/conflict split,
// and checks transformed traces against offsets derived from the kernel
// and rule definitions.
//
//   tdt_refsim sim <trace.out> <size:block:assoc:repl>...
//       One JSON object per configuration, in argument order.
//   tdt_refsim xform <t1|t2|t3> <N> <R> <orig.out> <transformed.out> [<t1_aos.out>]
//       One JSON object: {"ok": bool, "errors": [...], counts...}.
//
// Exit status: 0 when the command ran (xform reports failures in "ok"),
// 2 on unreadable input or bad arguments.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace {

struct Rec {
  char kind = 'L';
  std::uint64_t addr = 0;
  std::uint32_t size = 0;
  std::string_view name;  // variable name ("" when the record has none)
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "tdt_refsim: %s\n", msg.c_str());
  std::exit(2);
}

std::string slurp(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) die(std::string("cannot open ") + path);
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

std::vector<std::string_view> fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

// Parses "<kind> <hex addr> <size> <fn> [<scope> <frame> <thread> <name>]".
// START/END marker lines are skipped; anything else is a hard error, so a
// format change cannot silently shrink the checked record set.
std::vector<Rec> parse(const std::string& text, const char* path) {
  std::vector<Rec> recs;
  std::size_t pos = 0;
  std::size_t lineno = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const auto f = fields(line);
    if (f.empty() || f[0] == "START" || f[0] == "END") continue;
    if (f.size() < 4 || f[0].size() != 1 ||
        std::strchr("LSMI", f[0][0]) == nullptr) {
      die(std::string(path) + ":" + std::to_string(lineno) +
          ": unrecognised line");
    }
    Rec r;
    r.kind = f[0][0];
    r.addr = std::strtoull(std::string(f[1]).c_str(), nullptr, 16);
    r.size = static_cast<std::uint32_t>(
        std::strtoul(std::string(f[2]).c_str(), nullptr, 10));
    if (f.size() >= 8) r.name = f[7];
    if (r.size == 0) {
      die(std::string(path) + ":" + std::to_string(lineno) + ": zero size");
    }
    recs.push_back(r);
  }
  return recs;
}

// ---------------------------------------------------------------- sim

struct BlockAccess {
  std::uint64_t block;
  bool write;
};

std::vector<BlockAccess> block_stream(const std::vector<Rec>& recs,
                                      std::uint64_t block_size) {
  std::vector<BlockAccess> out;
  out.reserve(recs.size());
  for (const Rec& r : recs) {
    if (r.kind == 'I') continue;  // instruction fetches are not simulated
    const bool write = r.kind == 'S' || r.kind == 'M';
    const std::uint64_t first = r.addr / block_size;
    const std::uint64_t last = (r.addr + r.size - 1) / block_size;
    for (std::uint64_t b = first; b <= last; ++b) out.push_back({b, write});
  }
  return out;
}

// Reuse distance of every access: the number of distinct blocks touched
// since the previous access to the same block (UINT64_MAX on first
// touch). A fully-associative LRU cache of C blocks holds the block iff
// the distance is below C. Fenwick tree over access times, one marker at
// each block's latest access.
std::vector<std::uint64_t> reuse_distances(
    const std::vector<BlockAccess>& s) {
  const std::size_t n = s.size();
  std::vector<std::int32_t> tree(n + 1, 0);
  auto add = [&](std::size_t i, std::int32_t v) {
    for (++i; i <= n; i += i & (~i + 1)) tree[i] += v;
  };
  auto prefix = [&](std::size_t i) {  // sum over [0, i)
    std::int64_t sum = 0;
    for (; i > 0; i -= i & (~i + 1)) sum += tree[i];
    return sum;
  };
  std::unordered_map<std::uint64_t, std::size_t> last;
  last.reserve(1 << 16);
  std::vector<std::uint64_t> dist(n);
  for (std::size_t t = 0; t < n; ++t) {
    auto [it, fresh] = last.try_emplace(s[t].block, t);
    if (fresh) {
      dist[t] = UINT64_MAX;
    } else {
      const std::size_t prev = it->second;
      dist[t] = static_cast<std::uint64_t>(prefix(t) - prefix(prev + 1));
      add(prev, -1);
      it->second = t;
    }
    add(t, 1);
  }
  return dist;
}

struct Config {
  std::string text;
  std::uint64_t size = 0, block = 0;
  std::uint32_t assoc = 0;
  bool fifo = false;
};

Config parse_config(const std::string& text) {
  Config c;
  c.text = text;
  char repl[16] = {0};
  unsigned long long size = 0, block = 0;
  unsigned assoc = 0;
  if (std::sscanf(text.c_str(), "%llu:%llu:%u:%15s", &size, &block, &assoc,
                  repl) != 4) {
    die("bad config '" + text + "' (want size:block:assoc:lru|fifo)");
  }
  c.size = size;
  c.block = block;
  c.assoc = assoc;
  const std::string r(repl);
  if (r != "lru" && r != "fifo") die("reference model covers lru|fifo only");
  c.fifo = r == "fifo";
  if (block == 0 || assoc == 0 || size % (block * assoc) != 0) {
    die("bad geometry '" + text + "'");
  }
  return c;
}

struct Counts {
  std::uint64_t read_hits = 0, read_misses = 0, write_hits = 0,
                write_misses = 0, compulsory = 0, capacity = 0, conflict = 0,
                evictions = 0, writebacks = 0;
};

Counts simulate(const Config& c, const std::vector<BlockAccess>& s,
                const std::vector<std::uint64_t>& dist) {
  struct Way {
    std::uint64_t block = 0, stamp = 0;  // stamp: last use (LRU) or fill (FIFO)
    bool valid = false, dirty = false;
  };
  const std::uint64_t blocks = c.size / c.block;
  const std::uint64_t sets = blocks / c.assoc;
  std::vector<Way> ways(blocks);
  Counts k;
  std::uint64_t clock = 0;
  for (std::size_t t = 0; t < s.size(); ++t) {
    ++clock;
    Way* set = &ways[(s[t].block % sets) * c.assoc];
    Way* hit = nullptr;
    for (std::uint32_t w = 0; w < c.assoc; ++w) {
      if (set[w].valid && set[w].block == s[t].block) hit = &set[w];
    }
    if (hit != nullptr) {
      (s[t].write ? k.write_hits : k.read_hits)++;
      if (!c.fifo) hit->stamp = clock;
      hit->dirty = hit->dirty || s[t].write;
      continue;
    }
    (s[t].write ? k.write_misses : k.read_misses)++;
    if (dist[t] == UINT64_MAX) {
      ++k.compulsory;
    } else if (dist[t] >= blocks) {
      ++k.capacity;
    } else {
      ++k.conflict;
    }
    Way* victim = nullptr;
    for (std::uint32_t w = 0; w < c.assoc && victim == nullptr; ++w) {
      if (!set[w].valid) victim = &set[w];
    }
    if (victim == nullptr) {
      victim = &set[0];
      for (std::uint32_t w = 1; w < c.assoc; ++w) {
        if (set[w].stamp < victim->stamp) victim = &set[w];
      }
      ++k.evictions;
      if (victim->dirty) ++k.writebacks;
    }
    *victim = Way{s[t].block, clock, true, s[t].write};
  }
  return k;
}

int cmd_sim(int argc, char** argv) {
  if (argc < 4) die("usage: sim <trace.out> <size:block:assoc:repl>...");
  const std::string text = slurp(argv[2]);
  const std::vector<Rec> recs = parse(text, argv[2]);
  std::uint64_t memory_records = 0;
  for (const Rec& r : recs) memory_records += r.kind != 'I';
  std::unordered_map<std::uint64_t,
                     std::pair<std::vector<BlockAccess>,
                               std::vector<std::uint64_t>>>
      streams;
  for (int i = 3; i < argc; ++i) {
    const Config c = parse_config(argv[i]);
    auto it = streams.find(c.block);
    if (it == streams.end()) {
      auto s = block_stream(recs, c.block);
      auto d = reuse_distances(s);
      it = streams.emplace(c.block, std::make_pair(std::move(s), std::move(d)))
               .first;
    }
    const Counts k = simulate(c, it->second.first, it->second.second);
    std::printf(
        "{\"config\": \"%s\", \"records\": %llu, \"accesses\": %zu, "
        "\"read_hits\": %llu, "
        "\"read_misses\": %llu, \"write_hits\": %llu, \"write_misses\": %llu, "
        "\"compulsory\": %llu, \"capacity\": %llu, \"conflict\": %llu, "
        "\"evictions\": %llu, \"writebacks\": %llu}\n",
        c.text.c_str(), static_cast<unsigned long long>(memory_records),
        it->second.first.size(),
        static_cast<unsigned long long>(k.read_hits),
        static_cast<unsigned long long>(k.read_misses),
        static_cast<unsigned long long>(k.write_hits),
        static_cast<unsigned long long>(k.write_misses),
        static_cast<unsigned long long>(k.compulsory),
        static_cast<unsigned long long>(k.capacity),
        static_cast<unsigned long long>(k.conflict),
        static_cast<unsigned long long>(k.evictions),
        static_cast<unsigned long long>(k.writebacks));
  }
  return 0;
}

// -------------------------------------------------------------- xform

// "base[12].tail" -> (12, ".tail"); "base[12]" -> (12, ""). Returns false
// when `name` does not start with `base[`.
bool split_index(std::string_view name, std::string_view base,
                 std::uint64_t& index, std::string_view& tail) {
  if (name.size() <= base.size() + 1 || name.substr(0, base.size()) != base ||
      name[base.size()] != '[') {
    return false;
  }
  const std::size_t close = name.find(']', base.size());
  if (close == std::string_view::npos) return false;
  index = std::strtoull(
      std::string(name.substr(base.size() + 1, close - base.size() - 1))
          .c_str(),
      nullptr, 10);
  tail = name.substr(close + 1);
  return true;
}

// "soa.member[12]" -> (".member", 12).
bool split_soa(std::string_view name, std::string_view base,
               std::string_view& member, std::uint64_t& index) {
  if (name.substr(0, base.size()) != base || name.size() <= base.size() ||
      name[base.size()] != '.') {
    return false;
  }
  const std::size_t open = name.find('[', base.size());
  if (open == std::string_view::npos || name.back() != ']') return false;
  member = name.substr(base.size(), open - base.size());
  index = std::strtoull(
      std::string(name.substr(open + 1, name.size() - open - 2)).c_str(),
      nullptr, 10);
  return true;
}

struct XformCheck {
  std::vector<std::string> errors;
  std::uint64_t rewritten = 0, inserted = 0, skipped = 0, passthrough = 0;
  // Element index of the matched record being checked (-1: none), and of
  // the record where the first error was found.
  std::int64_t index = -1, first_error_index = -1;

  void fail(std::size_t at, const std::string& what) {
    if (errors.empty()) first_error_index = index;
    if (errors.size() < 8) {
      errors.push_back("record " + std::to_string(at) + ": " + what);
    }
  }
};

bool same(const Rec& a, const Rec& b) {
  return a.kind == b.kind && a.addr == b.addr && a.size == b.size &&
         a.name == b.name;
}

// Walks the original and transformed traces in lockstep. Records of the
// rule's in-variable with index < R must be rewritten exactly as the
// rule's out layout dictates; those with index >= R must pass through
// unchanged (the X001 path); every other record must pass through
// unchanged.
XformCheck check_xform(const std::string& kind, std::uint64_t n,
                       std::uint64_t r, const std::vector<Rec>& in,
                       const std::vector<Rec>& out,
                       const std::vector<Rec>* aos) {
  XformCheck x;
  std::size_t j = 0;
  bool have_base = false, have_pool = false;
  std::uint64_t base = 0, pool = 0;
  std::vector<const Rec*> rewritten_recs;
  auto next = [&](std::size_t at) -> const Rec* {
    if (j >= out.size()) {
      x.fail(at, "transformed trace ended early");
      return nullptr;
    }
    return &out[j++];
  };
  for (std::size_t i = 0; i < in.size() && x.errors.size() < 8; ++i) {
    const Rec& src = in[i];
    std::uint64_t idx = 0;
    std::string_view member, tail;
    bool matched = false;
    if (kind == "t1") {
      matched = split_soa(src.name, "lSoA", member, idx);
    } else if (kind == "t2") {
      matched = split_index(src.name, "lS1", idx, tail);
    } else {
      matched = split_index(src.name, "lContiguousArray", idx, tail);
    }
    x.index = matched ? static_cast<std::int64_t>(idx) : -1;
    const Rec* o = next(i);
    if (o == nullptr) break;
    if (!matched) {
      if (!same(src, *o)) x.fail(i, "unmatched record changed");
      ++x.passthrough;
      continue;
    }
    if (idx >= n) x.fail(i, "index beyond the kernel extent");
    if (idx >= r) {
      if (!same(src, *o)) x.fail(i, "unfit record did not pass through");
      ++x.skipped;
      continue;
    }
    if (kind == "t1") {
      // lSoA.mX[i] -> lAoS[i].mX at 16*i, lSoA.mY[i] -> lAoS[i].mY at 16*i+8.
      const std::string want =
          "lAoS[" + std::to_string(idx) + "]" + std::string(member);
      if (o->name != want) x.fail(i, "name " + std::string(o->name) + " != " + want);
      const std::uint64_t off = 16 * idx + (member == ".mY" ? 8 : 0);
      if (!have_base && idx == 0 && member == ".mX") {
        base = o->addr;
        have_base = true;
      }
      if (!have_base || o->addr - base != off) x.fail(i, "lAoS offset");
      if (o->kind != src.kind || o->size != src.size) x.fail(i, "kind/size");
      rewritten_recs.push_back(o);
      ++x.rewritten;
    } else if (kind == "t2") {
      const std::string elem = "lS2[" + std::to_string(idx) + "]";
      if (tail == ".mFrequentlyUsed") {
        if (o->name != elem + ".mFrequentlyUsed") x.fail(i, "hot member name");
        if (!have_base && idx == 0) {
          base = o->addr;
          have_base = true;
        }
        if (!have_base || o->addr - base != 16 * idx) x.fail(i, "lS2 offset");
        if (o->kind != src.kind || o->size != src.size) x.fail(i, "kind/size");
        ++x.rewritten;
        continue;
      }
      // Outlined member: one 8-byte pointer load of lS2[i].mRarelyUsed,
      // then the access itself in the pool at 16*i (+8 for mZ).
      if (o->kind != 'L' || o->size != 8 || o->name != elem + ".mRarelyUsed") {
        x.fail(i, "missing pointer load before outlined access");
      }
      if (have_base && o->addr - base != 16 * idx + 8) x.fail(i, "pointer slot");
      ++x.inserted;
      const Rec* p = next(i);
      if (p == nullptr) break;
      const bool is_y = tail == ".mRarelyUsed.mY";
      if (!is_y && tail != ".mRarelyUsed.mZ") x.fail(i, "unexpected member");
      const std::string want = "lStorageForRarelyUsed[" + std::to_string(idx) +
                               "]" + (is_y ? ".mY" : ".mZ");
      if (p->name != want) x.fail(i, "pool name " + std::string(p->name));
      if (!have_pool && idx == 0 && is_y) {
        pool = p->addr;
        have_pool = true;
      }
      if (!have_pool || p->addr - pool != 16 * idx + (is_y ? 0 : 8)) {
        x.fail(i, "pool offset");
      }
      if (p->kind != src.kind || p->size != src.size) x.fail(i, "kind/size");
      ++x.rewritten;
    } else {
      // Three injected lITEMSPERLINE loads, then the remapped access at
      // element (i/8)*128 + i%8 of lSetHashingArray.
      for (int k = 0; k < 3; ++k) {
        if (k > 0) o = next(i);
        if (o == nullptr) break;
        if (o->kind != 'L' || o->size != 4 || o->name != "lITEMSPERLINE") {
          x.fail(i, "missing injected lITEMSPERLINE load");
        }
        ++x.inserted;
      }
      const Rec* p = next(i);
      if (p == nullptr) break;
      const std::uint64_t elem = (idx / 8) * 128 + idx % 8;
      if (p->name != "lSetHashingArray[" + std::to_string(elem) + "]") {
        x.fail(i, "remapped name " + std::string(p->name));
      }
      if (!have_base && idx == 0) {
        base = p->addr;
        have_base = true;
      }
      if (!have_base || p->addr - base != 4 * elem) x.fail(i, "remapped offset");
      if (p->kind != src.kind || p->size != src.size) x.fail(i, "kind/size");
      ++x.rewritten;
    }
  }
  if (x.errors.empty() && j != out.size()) {
    x.fail(j, "transformed trace has extra records");
  }
  if (kind == "t1" && aos != nullptr && x.errors.empty()) {
    // Line for line against a t1_aos trace of the fitted prefix.
    std::size_t k = 0;
    for (const Rec& a : *aos) {
      if (a.name.substr(0, 5) != "lAoS[") continue;
      if (k >= rewritten_recs.size()) {
        x.fail(k, "t1_aos reference has more lAoS records");
        break;
      }
      const Rec& o = *rewritten_recs[k];
      if (o.kind != a.kind || o.size != a.size || o.name != a.name) {
        x.fail(k, "differs from t1_aos reference");
        break;
      }
      ++k;
    }
    if (x.errors.empty() && k != rewritten_recs.size()) {
      x.fail(k, "t1_aos reference has fewer lAoS records");
    }
  }
  return x;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out.push_back(ch);
  }
  return out + "\"";
}

int cmd_xform(int argc, char** argv) {
  if (argc < 7) {
    die("usage: xform <t1|t2|t3> <N> <R> <orig.out> <transformed.out> "
        "[<t1_aos.out>]");
  }
  const std::string kind = argv[2];
  if (kind != "t1" && kind != "t2" && kind != "t3") die("unknown variant");
  const std::uint64_t n = std::strtoull(argv[3], nullptr, 10);
  const std::uint64_t r = std::strtoull(argv[4], nullptr, 10);
  const std::string in_text = slurp(argv[5]);
  const std::string out_text = slurp(argv[6]);
  const auto in = parse(in_text, argv[5]);
  const auto out = parse(out_text, argv[6]);
  std::string aos_text;
  std::vector<Rec> aos;
  if (argc > 7) {
    aos_text = slurp(argv[7]);
    aos = parse(aos_text, argv[7]);
  }
  const XformCheck x =
      check_xform(kind, n, r, in, out, argc > 7 ? &aos : nullptr);
  std::string errs = "[";
  for (std::size_t i = 0; i < x.errors.size(); ++i) {
    if (i > 0) errs += ", ";
    errs += json_string(x.errors[i]);
  }
  errs += "]";
  std::printf(
      "{\"ok\": %s, \"errors\": %s, \"first_error_index\": %lld, "
      "\"records_in\": %zu, \"records_out\": %zu, "
      "\"rewritten\": %llu, \"inserted\": %llu, \"skipped\": %llu, "
      "\"passthrough\": %llu}\n",
      x.errors.empty() ? "true" : "false", errs.c_str(),
      static_cast<long long>(x.first_error_index), in.size(), out.size(),
      static_cast<unsigned long long>(x.rewritten),
      static_cast<unsigned long long>(x.inserted),
      static_cast<unsigned long long>(x.skipped),
      static_cast<unsigned long long>(x.passthrough));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "sim") return cmd_sim(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "xform") return cmd_xform(argc, argv);
  die("usage: tdt_refsim sim|xform ...");
}
