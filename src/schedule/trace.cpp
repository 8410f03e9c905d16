#include "schedule/trace.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace soap::schedule {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// floor((constant + sum coef * x[slot]) / den) with integer coefficients
/// and den > 0: an Affine with its parameters folded in, over dense loop
/// slots.  Equal to Affine::eval(env).floor() for the same bindings.
struct Form {
  struct Term {
    std::size_t slot;
    int128 coef;
  };
  std::vector<Term> terms;
  int128 constant = 0;
  int128 den = 1;
  bool narrow = true;  ///< every integer above fits in a long long
  /// Set when the form cannot be evaluated (e.g. it names an unbound
  /// variable); rethrown where Affine::eval would have thrown.
  std::exception_ptr error;
};

/// How a form's variables bind.  Loop slots [0, visible) hold the values of
/// the enclosing loops (the innermost loop of a repeated name wins); other
/// names must be parameters.  `inner_at_zero` reads the loops [visible,
/// depth) as 0: the tile-origin hull of append_tiled.
struct Scope {
  const std::vector<SymId>& loops;
  std::size_t visible;
  const SymMap<Rational>& params;
  bool inner_at_zero = false;
};

bool fits_long_long(int128 v) {
  return v >= std::numeric_limits<long long>::min() &&
         v <= std::numeric_limits<long long>::max();
}

Form compile(const Affine& a, const Scope& scope) {
  Form f;
  try {
    Rational constant = a.constant();
    std::vector<std::pair<std::size_t, Rational>> coeffs;
    for (const auto& [v, c] : a.coeffs()) {
      std::size_t slot = kNoSlot;
      for (std::size_t i = scope.visible; i-- > 0;) {
        if (scope.loops[i] == v) {
          slot = i;
          break;
        }
      }
      if (slot != kNoSlot) {
        coeffs.emplace_back(slot, c);
      } else if (const Rational* p = scope.params.find(v)) {
        constant += c * *p;
      } else if (!scope.inner_at_zero ||
                 std::find(scope.loops.begin() + scope.visible,
                           scope.loops.end(), v) == scope.loops.end()) {
        throw std::out_of_range("Affine::eval: unbound variable " +
                                symbol_name(v));
      }
    }
    int128 den = constant.den();
    for (const auto& [slot, c] : coeffs) {
      den = mul_checked(den / gcd128(den, c.den()), c.den());
    }
    f.den = den;
    f.constant = mul_checked(constant.num(), den / constant.den());
    f.narrow = fits_long_long(den) && fits_long_long(f.constant);
    for (const auto& [slot, c] : coeffs) {
      int128 coef = mul_checked(c.num(), den / c.den());
      f.narrow = f.narrow && fits_long_long(coef);
      f.terms.push_back({slot, coef});
    }
  } catch (...) {
    f = Form{};
    f.error = std::current_exception();
  }
  return f;
}

long long floor_div(long long a, long long b) {
  long long q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

long long eval(const Form& f, const long long* x) {
  if (f.error) std::rethrow_exception(f.error);
  if (f.narrow) {
    long long acc = static_cast<long long>(f.constant);
    bool overflow = false;
    for (const Form::Term& t : f.terms) {
      long long p;
      overflow |= __builtin_mul_overflow(static_cast<long long>(t.coef),
                                         x[t.slot], &p);
      overflow |= __builtin_add_overflow(acc, p, &acc);
    }
    if (!overflow) {
      return f.den == 1 ? acc : floor_div(acc, static_cast<long long>(f.den));
    }
  }
  // Exact 128-bit fallback: throws OverflowError past 128 bits, and past 64
  // bits for the result, instead of wrapping.
  int128 acc = f.constant;
  for (const Form::Term& t : f.terms) {
    acc = add_checked(acc, mul_checked(t.coef, x[t.slot]));
  }
  int128 q = Rational(acc, f.den).floor();
  if (!fits_long_long(q)) {
    throw OverflowError("trace: subscript or bound overflows 64 bits");
  }
  return static_cast<long long>(q);
}

/// Runs a loop nest over x[0, depth) outermost first: range(d) returns level
/// d's half-open [lo, hi) once x[0, d) is set, level d advances by step[d],
/// and leaf() runs at every innermost point.
template <class Range, class Leaf>
void walk(std::size_t depth, const std::vector<long long>& step,
          std::vector<long long>& x, Range&& range, Leaf&& leaf) {
  if (depth == 0) {
    leaf();
    return;
  }
  std::vector<long long> hi(depth);
  std::size_t d = 0;
  std::tie(x[0], hi[0]) = range(0);
  while (true) {
    if (x[d] < hi[d]) {
      if (d + 1 == depth) {
        leaf();
        x[d] += step[d];
      } else {
        ++d;
        std::tie(x[d], hi[d]) = range(d);
      }
      continue;
    }
    if (d == 0) return;
    --d;
    x[d] += step[d];
  }
}

std::uint64_t hash_index(const long long* idx, std::size_t rank) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ rank;
  for (std::size_t k = 0; k < rank; ++k) {
    h = (h ^ static_cast<std::uint64_t>(idx[k])) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  h ^= h >> 29;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 32);
}

}  // namespace

/// A statement compiled against one parameter binding: point-loop bounds
/// per level (level d sees loops [0, d)) and the accesses in trace order
/// (inputs' components, then the output write; subscripts see the whole
/// nest).
struct TraceBuilder::Compiled {
  struct Ref {
    std::size_t array;
    bool write;
    std::vector<Form> index;
  };
  SymMap<Rational> params;
  std::vector<SymId> ids;  ///< loop variable per slot, outermost first
  std::vector<Form> lower;
  std::vector<Form> upper;
  std::vector<Ref> refs;
  std::vector<long long> idx;  ///< subscript scratch, sized to the max rank

  Compiled(const Statement& st,
           const std::map<std::string, long long>& values,
           TraceBuilder& builder) {
    for (const auto& [k, v] : values) params.set(intern_symbol(k), Rational(v));
    const auto& loops = st.domain.loops();
    for (const Loop& loop : loops) ids.push_back(intern_symbol(loop.var));
    for (std::size_t d = 0; d < loops.size(); ++d) {
      lower.push_back(compile(loops[d].lower, Scope{ids, d, params}));
      upper.push_back(compile(loops[d].upper, Scope{ids, d, params}));
    }
    const Scope body{ids, loops.size(), params};
    auto add = [&](const ArrayAccess& access, const AccessComponent& comp,
                   bool write) {
      Ref& ref = refs.emplace_back();
      ref.array = builder.array_id(access.array, comp.index.size());
      ref.write = write;
      for (const Affine& a : comp.index) ref.index.push_back(compile(a, body));
      idx.resize(std::max(idx.size(), comp.index.size()));
    };
    for (const ArrayAccess& in : st.inputs) {
      for (const AccessComponent& comp : in.components) add(in, comp, false);
    }
    add(st.output, st.output.components[0], true);
  }
};

std::size_t TraceBuilder::array_id(const std::string& name, std::size_t rank) {
  auto [it, inserted] = array_ids_.try_emplace({name, rank}, arrays_.size());
  if (inserted) arrays_.push_back(ArrayTable{rank, {}, {}, {}});
  return it->second;
}

std::uint64_t TraceBuilder::address(ArrayTable& t, const long long* idx) {
  const std::size_t rank = t.rank;
  const std::size_t n = t.address.size();
  if (2 * (n + 1) > t.slots.size()) {
    // Keep the load factor at most 1/2, counting the element this call may
    // insert.
    if (n >= std::numeric_limits<std::uint32_t>::max() - 1) {
      throw std::length_error("trace: too many elements in one array");
    }
    t.slots.assign(std::bit_ceil(std::max<std::size_t>(16, 4 * n)), 0);
    const std::size_t mask = t.slots.size() - 1;
    for (std::size_t e = 0; e < n; ++e) {
      std::size_t s = hash_index(t.keys.data() + e * rank, rank) & mask;
      while (t.slots[s] != 0) s = (s + 1) & mask;
      t.slots[s] = static_cast<std::uint32_t>(e + 1);
    }
  }
  const std::size_t mask = t.slots.size() - 1;
  std::size_t s = hash_index(idx, rank) & mask;
  for (; t.slots[s] != 0; s = (s + 1) & mask) {
    const std::size_t e = t.slots[s] - 1;
    if (std::equal(idx, idx + rank, t.keys.data() + e * rank)) {
      return t.address[e];
    }
  }
  // First touch: the next dense id.
  t.slots[s] = static_cast<std::uint32_t>(n + 1);
  t.keys.insert(t.keys.end(), idx, idx + rank);
  t.address.push_back(addresses_++);
  return t.address.back();
}

void TraceBuilder::execute(Compiled& c, const long long* x) {
  long long* idx = c.idx.data();
  for (const Compiled::Ref& ref : c.refs) {
    for (std::size_t k = 0; k < ref.index.size(); ++k) {
      idx[k] = eval(ref.index[k], x);
    }
    trace_.push_back({address(arrays_[ref.array], idx), ref.write});
  }
}

void TraceBuilder::append_natural(
    const Statement& st, const std::map<std::string, long long>& params) {
  Compiled c(st, params, *this);
  const std::size_t depth = c.ids.size();
  std::vector<long long> x(depth, 0);
  const std::vector<long long> unit(depth, 1);
  walk(
      depth, unit, x,
      [&](std::size_t d) {
        long long lo = eval(c.lower[d], x.data());
        return std::pair(lo, eval(c.upper[d], x.data()));
      },
      [&] { execute(c, x.data()); });
}

void TraceBuilder::append_tiled(const Statement& st,
                                const std::map<std::string, long long>& params,
                                const std::map<std::string, long long>& tiles) {
  Compiled c(st, params, *this);
  const auto& loops = st.domain.loops();
  const std::size_t depth = c.ids.size();
  // Tile origins per level, then points within the tile.  Bounds may depend
  // on outer iteration variables, so origins are enumerated against a hull:
  // each outer loop at the last point of its tile (so upward-dependent bounds
  // such as range(0, i) are not truncated) and each inner loop at 0.  The
  // point loops re-clip exactly, so empty tiles produce no executions.
  std::vector<Form> hull_lower;
  std::vector<Form> hull_upper;
  for (std::size_t d = 0; d < depth; ++d) {
    const Scope hull{c.ids, d, c.params, /*inner_at_zero=*/true};
    hull_lower.push_back(compile(loops[d].lower, hull));
    hull_upper.push_back(compile(loops[d].upper, hull));
  }
  std::vector<long long> tile_size(depth, 1);
  for (std::size_t i = 0; i < depth; ++i) {
    auto it = tiles.find(loops[i].var);
    tile_size[i] = it == tiles.end() ? 1 : std::max<long long>(1, it->second);
  }
  const std::vector<long long> unit(depth, 1);
  std::vector<long long> origin(depth, 0);
  std::vector<long long> last(depth, 0);  // hull: last point of outer tiles
  std::vector<long long> x(depth, 0);
  walk(
      depth, tile_size, origin,
      [&](std::size_t d) {
        for (std::size_t i = 0; i < d; ++i) {
          last[i] = origin[i] + tile_size[i] - 1;
        }
        long long lo = eval(hull_lower[d], last.data());
        long long hi = eval(hull_upper[d], last.data());
        // Dependent bounds can start below the hull lower bound; widen
        // downward to 0 defensively.
        return std::pair(std::min<long long>(lo, 0), hi);
      },
      [&] {
        walk(
            depth, unit, x,
            [&](std::size_t d) {
              long long lo = eval(c.lower[d], x.data());
              long long hi = eval(c.upper[d], x.data());
              return std::pair(std::max(lo, origin[d]),
                               std::min(hi, origin[d] + tile_size[d]));
            },
            [&] { execute(c, x.data()); });
      });
}

}  // namespace soap::schedule
