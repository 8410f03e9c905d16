// Memory-access trace generation for (tiled) SOAP loop nests, feeding the
// cache simulator.  This stands in for running the generated code on real
// hardware: the paper's claim that the derived tilings are I/O optimal is
// demonstrated by simulated misses approaching the analytic lower bound.
//
// Each append compiles the statement once: every loop bound and subscript
// becomes an integer affine form over the loop variables (parameters folded
// into the constant, one common denominator per form), so a trace point costs
// a few integer multiply-adds and one hash probe.  Addresses are first-touch
// dense ids: the k-th distinct (array, element) a builder sees is address k,
// across all appends on that builder (docs/ATTAINMENT.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "soap/statement.hpp"

namespace soap::schedule {

struct Access {
  std::uint64_t address;  ///< unique id of (array, element)
  bool write = false;
};

class TraceBuilder {
 public:
  /// Appends the accesses of executing `st` over its full domain in the
  /// natural loop order.
  void append_natural(const Statement& st,
                      const std::map<std::string, long long>& params);

  /// Appends the accesses of a tiled execution: loops are split into
  /// tile/point loops; tile loops iterate outermost (same nesting order).
  void append_tiled(const Statement& st,
                    const std::map<std::string, long long>& params,
                    const std::map<std::string, long long>& tiles);

  [[nodiscard]] const std::vector<Access>& trace() const { return trace_; }
  [[nodiscard]] std::size_t distinct_addresses() const { return addresses_; }

 private:
  struct Compiled;

  /// One array's elements: an open-addressing table over a flat key arena
  /// (`rank` subscripts per element, in first-touch order).
  struct ArrayTable {
    std::size_t rank = 0;
    std::vector<long long> keys;
    std::vector<std::uint64_t> address;  ///< per element
    std::vector<std::uint32_t> slots;    ///< element index + 1; 0 = empty
  };

  std::size_t array_id(const std::string& name, std::size_t rank);
  std::uint64_t address(ArrayTable& table, const long long* idx);
  void execute(Compiled& c, const long long* x);

  std::map<std::pair<std::string, std::size_t>, std::size_t> array_ids_;
  std::vector<ArrayTable> arrays_;
  std::size_t addresses_ = 0;
  std::vector<Access> trace_;
};

}  // namespace soap::schedule
