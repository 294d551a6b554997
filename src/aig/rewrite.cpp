#include "aig/rewrite.h"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <span>
#include <type_traits>
#include <unordered_map>

namespace orap::aig {

namespace {

// --- truth-table helpers (templated over width) ------------------------------
//
// TruthOps<TT, NV> provides variable masks and cofactors for functions of
// NV variables packed into a TT word: 16-bit/4-var tables drive the
// rewrite pass, 64-bit/6-var tables drive the refactor pass.

template <typename TT, int NV>
struct TruthOps {
  static constexpr TT splat(std::uint64_t w) { return static_cast<TT>(w); }
  static constexpr TT var(int i) {
    constexpr std::uint64_t kPatterns[6] = {
        0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
        0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
    return splat(kPatterns[i]);
  }
  static constexpr TT all_ones() {
    return static_cast<TT>(~static_cast<TT>(0));
  }
  static TT cofactor0(TT f, int v) {
    const TT lo = f & static_cast<TT>(~var(v));
    return lo | static_cast<TT>(lo << (1 << v));
  }
  static TT cofactor1(TT f, int v) {
    const TT hi = f & var(v);
    return hi | static_cast<TT>(hi >> (1 << v));
  }
  static bool depends_on(TT f, int v) {
    return cofactor0(f, v) != cofactor1(f, v);
  }
};

using Tt = std::uint16_t;  // 4-var tables for the cut rewriter
constexpr Tt kVarTt[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};
constexpr Tt kTtTrue = 0xFFFF;

// --- cuts --------------------------------------------------------------------

struct Cut {
  std::array<std::uint32_t, 4> leaves{};  // sorted; unused entries are 0
  std::uint64_t sign = 0;  // OR of 1 << (leaf % 64): a leaf-set filter
  std::uint8_t size = 0;
  Tt truth = 0;  // over leaves[0..size-1] as vars 0..size-1 (padded to 4)
};

Cut trivial_cut(std::uint32_t node) {
  Cut c;
  c.leaves[0] = node;
  c.sign = std::uint64_t{1} << (node % 64);
  c.size = 1;
  c.truth = kVarTt[0];
  return c;
}

/// Exchanges variables i < j of a 4-variable truth table.
Tt swap_vars(Tt t, int i, int j) {
  const int shift = (1 << j) - (1 << i);
  const auto up = static_cast<Tt>(kVarTt[i] & ~kVarTt[j]);
  const auto down = static_cast<Tt>(kVarTt[j] & ~kVarTt[i]);
  return static_cast<Tt>((t & ~(up | down)) | ((t & up) << shift) |
                         ((t & down) >> shift));
}

/// Sorted union of two leaf sets into `out.leaves`/`out.size`; false if it
/// has more than 4 leaves. pa[i] / pb[j] receive the position of a's i-th
/// and b's j-th leaf in the union.
bool merge_leaves(const Cut& a, const Cut& b, Cut& out,
                  std::array<std::uint8_t, 4>& pa,
                  std::array<std::uint8_t, 4>& pb) {
  int i = 0, j = 0;
  std::uint8_t k = 0;
  while (i < a.size || j < b.size) {
    if (k == 4) return false;
    if (i < a.size && (j >= b.size || a.leaves[i] <= b.leaves[j])) {
      if (j < b.size && b.leaves[j] == a.leaves[i]) pb[j++] = k;
      out.leaves[k] = a.leaves[i];
      pa[i++] = k;
    } else {
      out.leaves[k] = b.leaves[j];
      pb[j++] = k;
    }
    ++k;
  }
  out.size = k;
  return true;
}

// --- memoized function synthesis ----------------------------------------------

enum class DecKind : std::uint8_t {
  kConst0,
  kVar,       // f == var (possibly complemented handled by normalization)
  kOrVarF0,   // f = x | f0
  kAndNVarF0, // f = !x & f0
  kOrNVarF1,  // f = !x | f1
  kAndVarF1,  // f = x & f1
  kXorVarF0,  // f = x ^ f0
  kMux,       // f = x ? f1 : f0
};

struct Decision {
  DecKind kind = DecKind::kConst0;
  std::uint8_t var = 0;
  std::uint16_t cost = 0;
};

/// Memoized Shannon-decomposition synthesizer over NV-variable functions
/// packed into TT words. The 4-var instantiation backs the cut rewriter;
/// the 6-var one backs the fanout-free-cone refactorer.
template <typename TT, int NV>
class FuncSynthT {
  using Ops = TruthOps<TT, NV>;

 public:
  /// Standalone AND-node cost of `f` (negations free).
  std::uint16_t cost(TT f) {
    bool flip;
    const TT g = norm(f, flip);
    return decide(g).cost;
  }

  struct PB {  // probe/build result
    std::uint32_t new_nodes = 0;
    AigLit lit = Aig::kNoLit;  // known literal, or kNoLit during probing
  };

  /// build=false: exact count of AND nodes that synthesizing `f` over
  /// `leaves` would add to `a` (sharing via strash lookups). build=true:
  /// actually creates the structure and returns its literal.
  PB synth(TT f, const std::array<AigLit, NV>& leaves, Aig& a, bool build) {
    bool flip;
    const TT g = norm(f, flip);
    PB r = synth_norm(g, leaves, a, build);
    if (flip && r.lit != Aig::kNoLit) r.lit = lit_not(r.lit);
    return r;
  }

 private:
  static TT norm(TT f, bool& flip) {
    flip = (f & 1) != 0;
    return flip ? static_cast<TT>(~f) : f;
  }

  // Four-variable decisions sit in a direct-indexed table: normalized
  // functions are even, so f >> 1 indexes 2^15 entries, and cost kUnset
  // marks one not computed yet. Six-variable functions are too many to
  // tabulate, so their memo is a hash map.
  static constexpr std::uint16_t kUnset = 0xffff;
  using Memo = std::conditional_t<NV == 4, std::vector<Decision>,
                                  std::unordered_map<TT, Decision>>;

  static Memo empty_memo() {
    if constexpr (NV == 4)
      return Memo(std::size_t{1} << 15, Decision{DecKind::kConst0, 0, kUnset});
    else
      return {};
  }

  const Decision& decide(TT f) {
    ORAP_DCHECK((f & 1) == 0);
    if constexpr (NV == 4) {
      Decision& d = memo_[f >> 1];
      if (d.cost == kUnset) d = compute(f);
      return d;
    } else {
      const auto it = memo_.find(f);
      if (it != memo_.end()) return it->second;
      return memo_.emplace(f, compute(f)).first->second;
    }
  }

  Decision compute(TT f) {
    if (f == 0) return {DecKind::kConst0, 0, 0};
    for (std::uint8_t v = 0; v < NV; ++v)
      if (f == Ops::var(v)) return {DecKind::kVar, v, 0};

    Decision best;
    best.cost = 0xffff;
    for (std::uint8_t v = 0; v < NV; ++v) {
      if (!Ops::depends_on(f, v)) continue;
      const TT f0 = Ops::cofactor0(f, v);
      const TT f1 = Ops::cofactor1(f, v);
      Decision cand;
      cand.var = v;
      if (f1 == Ops::all_ones()) {
        cand.kind = DecKind::kOrVarF0;
        cand.cost = static_cast<std::uint16_t>(1 + cost(f0));
      } else if (f1 == 0) {
        cand.kind = DecKind::kAndNVarF0;
        cand.cost = static_cast<std::uint16_t>(1 + cost(f0));
      } else if (f0 == Ops::all_ones()) {
        cand.kind = DecKind::kOrNVarF1;
        cand.cost = static_cast<std::uint16_t>(1 + cost(f1));
      } else if (f0 == 0) {
        cand.kind = DecKind::kAndVarF1;
        cand.cost = static_cast<std::uint16_t>(1 + cost(f1));
      } else if (f1 == static_cast<TT>(~f0)) {
        cand.kind = DecKind::kXorVarF0;
        cand.cost = static_cast<std::uint16_t>(3 + cost(f0));
      } else {
        cand.kind = DecKind::kMux;
        cand.cost = static_cast<std::uint16_t>(3 + cost(f0) + cost(f1));
      }
      if (cand.cost < best.cost) best = cand;
    }
    ORAP_DCHECK(best.cost != 0xffff);
    return best;
  }

  PB pand(PB x, PB y, Aig& a, bool build) {
    if (build) return {0, a.and2(x.lit, y.lit)};
    PB r;
    r.new_nodes = x.new_nodes + y.new_nodes;
    if (x.lit != Aig::kNoLit && y.lit != Aig::kNoLit) {
      const AigLit hit = a.find_and(x.lit, y.lit);
      if (hit != Aig::kNoLit) {
        r.lit = hit;
        return r;
      }
    }
    ++r.new_nodes;
    return r;
  }

  static PB pnot(PB x) {
    if (x.lit != Aig::kNoLit) x.lit = lit_not(x.lit);
    return x;
  }

  PB synth_norm(TT f, const std::array<AigLit, NV>& leaves, Aig& a,
                bool build) {
    if (f == 0) return {0, kLitFalse};
    for (std::uint8_t v = 0; v < NV; ++v)
      if (f == Ops::var(v)) return {0, leaves[v]};
    const Decision d = decide(f);
    const PB x{0, leaves[d.var]};
    const TT f0 = Ops::cofactor0(f, d.var);
    const TT f1 = Ops::cofactor1(f, d.var);
    switch (d.kind) {
      case DecKind::kOrVarF0:  // !( !x & !f0 )
        return pnot(pand(pnot(x), pnot(synth(f0, leaves, a, build)), a, build));
      case DecKind::kAndNVarF0:
        return pand(pnot(x), synth(f0, leaves, a, build), a, build);
      case DecKind::kOrNVarF1:  // !( x & !f1 )
        return pnot(pand(x, pnot(synth(f1, leaves, a, build)), a, build));
      case DecKind::kAndVarF1:
        return pand(x, synth(f1, leaves, a, build), a, build);
      case DecKind::kXorVarF0: {
        // x ^ f0 = !( !(x & !f0) & !(!x & f0) )
        const PB s0 = synth(f0, leaves, a, build);
        const PB t0 = pand(x, pnot(s0), a, build);
        const PB t1 = pand(pnot(x), s0, a, build);
        return pnot(pand(pnot(t0), pnot(t1), a, build));
      }
      case DecKind::kMux: {
        // x ? f1 : f0 = !( !(x & f1) & !(!x & f0) )
        const PB s0 = synth(f0, leaves, a, build);
        const PB s1 = synth(f1, leaves, a, build);
        const PB t1 = pand(x, s1, a, build);
        const PB t0 = pand(pnot(x), s0, a, build);
        return pnot(pand(pnot(t1), pnot(t0), a, build));
      }
      default:
        ORAP_CHECK_MSG(false, "unreachable synth kind");
        return {};
    }
  }

  Memo memo_ = empty_memo();
};

using FuncSynth = FuncSynthT<std::uint16_t, 4>;
using ConeSynth = FuncSynthT<std::uint64_t, 6>;

// One shared memo across passes and callers, so every resynthesis meets
// the warm tables. The public entry points that touch it hold
// synth_mutex() for their whole call; it is recursive because
// resynthesize() calls the passes.
std::recursive_mutex& synth_mutex() {
  static std::recursive_mutex m;
  return m;
}

FuncSynth& func_synth() {
  static FuncSynth s;
  return s;
}

ConeSynth& cone_synth() {
  static ConeSynth s;
  return s;
}

}  // namespace

namespace detail {

Tt truth_stretch(Tt t, int n, const std::array<std::uint8_t, 4>& pos) {
  // pos is strictly increasing with pos[i] >= i, so moving the highest
  // variable first always swaps into a position `t` does not depend on.
  for (int i = n - 1; i >= 0; --i)
    if (pos[i] != i) t = swap_vars(t, i, pos[i]);
  return t;
}

}  // namespace detail

namespace {

/// The cuts of every node of an AIG in one flat array: node n owns slots
/// [n * stride, n * stride + count[n]) with stride = cuts_per_node + 1 —
/// its best cuts by leaf count, then its trivial cut.
class CutStore {
 public:
  CutStore(const Aig& in, int cuts_per_node);
  std::span<const Cut> of(std::uint32_t n) const {
    return {cuts_.data() + n * stride_, count_[n]};
  }

 private:
  std::size_t stride_;
  std::vector<Cut> cuts_;
  std::vector<std::uint32_t> count_;
};

CutStore::CutStore(const Aig& in, int cuts_per_node)
    : stride_(static_cast<std::size_t>(cuts_per_node) + 1),
      cuts_(in.num_nodes() * stride_),
      count_(in.num_nodes(), 1) {
  // Node 0 (constant) keeps the default cut: no leaves, constant-0 truth.
  std::vector<Cut> cand;  // one node's candidates, in generation order
  cand.reserve(stride_ * stride_);
  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    Cut* slot = cuts_.data() + n * stride_;
    if (!in.is_and(n)) {
      slot[0] = trivial_cut(n);
      continue;
    }
    const AigLit l0 = in.fanin0(n);
    const AigLit l1 = in.fanin1(n);
    const Tt flip0 = lit_compl(l0) ? kTtTrue : 0;
    const Tt flip1 = lit_compl(l1) ? kTtTrue : 0;
    cand.clear();
    for (const Cut& c0 : of(lit_node(l0))) {
      for (const Cut& c1 : of(lit_node(l1))) {
        const std::uint64_t sign = c0.sign | c1.sign;
        if (std::popcount(sign) > 4) continue;
        Cut m;
        std::array<std::uint8_t, 4> p0{}, p1{};
        if (!merge_leaves(c0, c1, m, p0, p1)) continue;
        m.sign = sign;
        m.truth = static_cast<Tt>(
            (detail::truth_stretch(c0.truth, c0.size, p0) ^ flip0) &
            (detail::truth_stretch(c1.truth, c1.size, p1) ^ flip1));
        // Dedupe by leaf set.
        const bool dup =
            std::any_of(cand.begin(), cand.end(), [&m](const Cut& c) {
              return c.sign == m.sign && c.size == m.size &&
                     c.leaves == m.leaves;
            });
        if (!dup) cand.push_back(m);
      }
    }
    std::sort(cand.begin(), cand.end(),
              [](const Cut& a, const Cut& b) { return a.size < b.size; });
    const std::size_t keep =
        std::min(cand.size(), static_cast<std::size_t>(cuts_per_node));
    std::copy_n(cand.begin(), keep, slot);
    slot[keep] = trivial_cut(n);  // building block for parents
    count_[n] = static_cast<std::uint32_t>(keep + 1);
  }
}

/// Number of interior cone nodes (strictly between `root` and the cut
/// leaves) whose only fanout lies inside the cone — i.e. the nodes that
/// die if `root` is re-expressed directly over the leaves (an MFFC
/// approximation using global fanout-1 as the "dies" criterion).
std::uint32_t dying_interior(const Aig& in,
                             const std::vector<std::uint32_t>& fanout,
                             std::uint32_t root, const Cut& c) {
  std::uint32_t dying = 0;
  std::array<std::uint32_t, 16> stack;
  std::array<std::uint32_t, 16> seen{};
  int sp = 0, nseen = 0;
  auto is_leaf = [&c](std::uint32_t node) {
    for (int i = 0; i < c.size; ++i)
      if (c.leaves[i] == node) return true;
    return false;
  };
  stack[sp++] = root;
  while (sp > 0) {
    const std::uint32_t t = stack[--sp];
    for (const AigLit f : {in.fanin0(t), in.fanin1(t)}) {
      const std::uint32_t fn = lit_node(f);
      if (!in.is_and(fn) || is_leaf(fn)) continue;
      bool dup = false;
      for (int i = 0; i < nseen; ++i) dup |= seen[i] == fn;
      if (dup || nseen == 16 || sp == 16) continue;
      seen[nseen++] = fn;
      if (fanout[fn] == 1) ++dying;
      stack[sp++] = fn;
    }
  }
  return dying;
}

}  // namespace

Aig rewrite_pass(const Aig& in, const RewriteOptions& opts) {
  const std::lock_guard<std::recursive_mutex> lock(synth_mutex());
  const CutStore cuts(in, opts.cuts_per_node);
  const auto fanout = in.fanout_counts();
  FuncSynth& fs = func_synth();

  Aig out;
  std::vector<AigLit> map(in.num_nodes(), Aig::kNoLit);
  map[0] = kLitFalse;
  for (const std::uint32_t pi : in.pis()) map[pi] = out.add_pi();
  auto map_lit = [&map](AigLit l) {
    return lit_compl(l) ? lit_not(map[lit_node(l)]) : map[lit_node(l)];
  };

  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    if (!in.is_and(n)) continue;
    const AigLit a = map_lit(in.fanin0(n));
    const AigLit b = map_lit(in.fanin1(n));
    // Default choice: rebuild from the mapped fanins (cost 0 when the
    // strash already has the node). Interior nodes it keeps alive are
    // sunk cost, so its score gets no dying credit.
    const std::int32_t default_cost =
        out.find_and(a, b) != Aig::kNoLit ? 0 : 1;
    std::int32_t best_score = default_cost;
    const Cut* best_cut = nullptr;
    std::array<AigLit, 4> best_leaves{};
    if (default_cost > 0) {
      for (const Cut& c : cuts.of(n)) {
        if (c.size == 1 && c.leaves[0] == n) continue;  // self-cut
        std::array<AigLit, 4> leaves{kLitFalse, kLitFalse, kLitFalse,
                                     kLitFalse};
        for (int i = 0; i < c.size; ++i) leaves[i] = map[c.leaves[i]];
        const auto probe = fs.synth(c.truth, leaves, out, /*build=*/false);
        const std::uint32_t dying = dying_interior(in, fanout, n, c);
        const std::int32_t score =
            static_cast<std::int32_t>(probe.new_nodes) -
            static_cast<std::int32_t>(dying);
        // Strict improvement, or a tie that at least retires interior
        // nodes (canonicalization that unlocks sharing in later passes).
        if (score < best_score ||
            (score == best_score && dying > 0 && best_cut == nullptr)) {
          best_score = score;
          best_cut = &c;
          best_leaves = leaves;
        }
      }
    }
    if (best_cut == nullptr) {
      map[n] = out.and2(a, b);
    } else {
      map[n] = fs.synth(best_cut->truth, best_leaves, out, /*build=*/true).lit;
    }
  }
  for (const AigLit po : in.pos()) out.add_po(map_lit(po));
  return out.cleanup();
}

Aig refactor_pass(const Aig& in) {
  const std::lock_guard<std::recursive_mutex> lock(synth_mutex());
  const auto fanout = in.fanout_counts();
  ConeSynth& cs = cone_synth();

  Aig out;
  std::vector<AigLit> map(in.num_nodes(), Aig::kNoLit);
  map[0] = kLitFalse;
  for (const std::uint32_t pi : in.pis()) map[pi] = out.add_pi();
  auto map_lit = [&map](AigLit l) {
    return lit_compl(l) ? lit_not(map[lit_node(l)]) : map[lit_node(l)];
  };

  std::vector<std::uint32_t> cone;    // interior nodes (including root)
  std::vector<std::uint32_t> leaves;  // boundary nodes
  // Cone truth tables by node id, reused across cones: a cone reads only
  // its own nodes and leaves, each written before it is read, and the
  // constant node, which stays 0.
  std::vector<std::uint64_t> val(in.num_nodes(), 0);
  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    if (!in.is_and(n)) continue;
    const AigLit da = map_lit(in.fanin0(n));
    const AigLit db = map_lit(in.fanin1(n));
    const std::int32_t default_cost =
        out.find_and(da, db) != Aig::kNoLit ? 0 : 1;

    bool use_cone = false;
    std::uint64_t truth = 0;
    std::array<AigLit, 6> leaf_lits{};
    std::int32_t cone_score = 0;
    if (default_cost > 0) {
      // Fanout-free cone: expand fanins that are single-fanout ANDs.
      cone.clear();
      leaves.clear();
      cone.push_back(n);
      for (std::size_t i = 0; i < cone.size() && leaves.size() <= 6; ++i) {
        const std::uint32_t t = cone[i];
        for (const AigLit f : {in.fanin0(t), in.fanin1(t)}) {
          const std::uint32_t fn = lit_node(f);
          if (fn == 0) continue;  // constant: not a leaf variable
          const bool interior = in.is_and(fn) && fanout[fn] == 1;
          auto& bucket = interior ? cone : leaves;
          if (std::find(bucket.begin(), bucket.end(), fn) == bucket.end())
            bucket.push_back(fn);
        }
      }
      if (leaves.size() <= 6 && cone.size() >= 3) {
        // Truth table of the cone over its leaves (evaluate in id order;
        // fanins always precede their gate).
        std::sort(cone.begin(), cone.end());
        for (std::size_t i = 0; i < leaves.size(); ++i)
          val[leaves[i]] = TruthOps<std::uint64_t, 6>::var(static_cast<int>(i));
        auto lit_val = [&val](AigLit l) {
          const std::uint64_t v = val[lit_node(l)];
          return lit_compl(l) ? ~v : v;
        };
        for (const std::uint32_t t : cone)
          val[t] = lit_val(in.fanin0(t)) & lit_val(in.fanin1(t));
        truth = val[n];
        for (std::size_t i = 0; i < leaves.size(); ++i)
          leaf_lits[i] = map[leaves[i]];
        for (std::size_t i = leaves.size(); i < 6; ++i)
          leaf_lits[i] = kLitFalse;
        const auto probe = cs.synth(truth, leaf_lits, out, /*build=*/false);
        // Every interior node except the root dies if bypassed.
        const auto dying = static_cast<std::int32_t>(cone.size() - 1);
        cone_score = static_cast<std::int32_t>(probe.new_nodes) - dying;
        use_cone = cone_score < default_cost;
      }
    }
    map[n] = use_cone
                 ? cs.synth(truth, leaf_lits, out, /*build=*/true).lit
                 : out.and2(da, db);
  }
  for (const AigLit po : in.pos()) out.add_po(map_lit(po));
  return out.cleanup();
}

Aig balance(const Aig& in) {
  const auto fanout = in.fanout_counts();

  // A node is interior to an AND tree when it feeds exactly one parent,
  // uncomplemented; such nodes are folded into their root's operand list.
  std::vector<bool> interior(in.num_nodes(), false);
  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    if (!in.is_and(n)) continue;
    for (const AigLit f : {in.fanin0(n), in.fanin1(n)}) {
      const std::uint32_t fn = lit_node(f);
      if (!lit_compl(f) && in.is_and(fn) && fanout[fn] == 1)
        interior[fn] = true;
    }
  }

  Aig out;
  std::vector<AigLit> map(in.num_nodes(), Aig::kNoLit);
  map[0] = kLitFalse;
  for (const std::uint32_t pi : in.pis()) map[pi] = out.add_pi();
  auto map_lit = [&map](AigLit l) {
    return lit_compl(l) ? lit_not(map[lit_node(l)]) : map[lit_node(l)];
  };

  std::vector<std::uint32_t> lvl_cache;  // levels in `out`, grown lazily
  auto level_of = [&](AigLit l) -> std::uint32_t {
    const std::uint32_t node = lit_node(l);
    if (node >= lvl_cache.size()) lvl_cache.resize(out.num_nodes(), 0);
    return lvl_cache[node];
  };
  auto record_level = [&](AigLit l) {
    const std::uint32_t node = lit_node(l);
    if (node >= lvl_cache.size()) lvl_cache.resize(node + 1, 0);
    if (out.is_and(node)) {
      lvl_cache[node] =
          1 + std::max(level_of(out.fanin0(node)), level_of(out.fanin1(node)));
    }
  };

  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    if (!in.is_and(n) || interior[n]) continue;
    // Collect the maximal single-fanout AND tree rooted here; operands are
    // the tree's frontier literals (already mapped, being earlier roots).
    std::vector<AigLit> operands;
    std::vector<std::uint32_t> stack{n};
    while (!stack.empty()) {
      const std::uint32_t t = stack.back();
      stack.pop_back();
      for (const AigLit f : {in.fanin0(t), in.fanin1(t)}) {
        const std::uint32_t fn = lit_node(f);
        if (!lit_compl(f) && in.is_and(fn) && fanout[fn] == 1) {
          stack.push_back(fn);
        } else {
          operands.push_back(f);
        }
      }
    }
    // Huffman-style combine: always AND the two shallowest operands.
    std::vector<AigLit> ops;
    for (const AigLit f : operands) ops.push_back(map_lit(f));
    while (ops.size() > 1) {
      std::sort(ops.begin(), ops.end(), [&](AigLit x, AigLit y) {
        return level_of(x) > level_of(y);  // descending; take from back
      });
      const AigLit x = ops.back();
      ops.pop_back();
      const AigLit y = ops.back();
      ops.pop_back();
      const AigLit r = out.and2(x, y);
      record_level(r);
      ops.push_back(r);
    }
    map[n] = ops[0];
  }
  for (const AigLit po : in.pos()) out.add_po(map_lit(po));
  return out.cleanup();
}

Aig resynthesize(const Aig& in, const RewriteOptions& opts) {
  const std::lock_guard<std::recursive_mutex> lock(synth_mutex());
  Aig cur = in.cleanup();  // strash-style dedup + dead-node sweep
  if (opts.balance) cur = balance(cur);
  // A pass that does not shrink the AIG can still canonicalize structures
  // and unlock sharing for the next pass, so stop only after two
  // consecutive non-improving passes. The dying-credit heuristic can
  // occasionally lose its bet and grow the graph, so track the best
  // result seen and never return anything worse.
  Aig best = cur;
  int stale = 0;
  for (int pass = 0; pass < opts.passes && stale < 2; ++pass) {
    const std::size_t before = cur.num_ands();
    cur = rewrite_pass(cur, opts);
    stale = cur.num_ands() >= before ? stale + 1 : 0;
    if (cur.num_ands() < best.num_ands()) best = cur;
  }
  // Larger-window refactor, then one more rewrite to clean up.
  cur = refactor_pass(cur);
  if (cur.num_ands() < best.num_ands()) best = cur;
  cur = rewrite_pass(cur, opts);
  if (cur.num_ands() < best.num_ands()) best = cur;
  if (opts.balance) {
    Aig balanced = balance(best);
    if (balanced.num_ands() <= best.num_ands()) return balanced;
  }
  return best;
}

AigStats resynthesized_stats(const Netlist& n, const RewriteOptions& opts) {
  return aig_stats(resynthesize(Aig::from_netlist(n), opts));
}

}  // namespace orap::aig
