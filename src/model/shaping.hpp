#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/token.hpp"
#include "util/time.hpp"

/// \file shaping.hpp
/// Introspectable source/sink shaping functors: named callable types for
/// the behavioural std::functions of a model::ArchitectureDesc (earliest,
/// gap, attrs, consume_delay). Wrapping a behaviour in one of these instead
/// of a hand-written lambda buys two things downstream:
///  * the serve wire format (serve/wire.hpp) recovers the parameters via
///    std::function::target<T>() and serializes the behaviour concretely
///    instead of as an opaque stub;
///  * the adaptive backend (study/adaptive.hpp) can *certify* that the
///    behaviour continues a detected period P past the simulated frontier
///    (docs/DESIGN.md §15) — an opaque lambda forces it to keep simulating.
///
/// Historically these types lived in serve/wire.hpp; serve keeps `using`
/// aliases, so `serve::TableTimeFn` remains the same type (target<T>()
/// introspection is unaffected by the move). Tables are shared immutably:
/// copying the std::function copies a pointer, not the table.

namespace maxev::model {

/// earliest(k) from an explicit per-token table.
struct TableTimeFn {
  std::shared_ptr<const std::vector<std::int64_t>> values_ps;
  TimePoint operator()(std::uint64_t k) const {
    return TimePoint::at_ps(values_ps->at(k));
  }
};

/// earliest(k) = offset + k * period.
struct PeriodicTimeFn {
  std::int64_t offset_ps = 0;
  std::int64_t period_ps = 0;
  TimePoint operator()(std::uint64_t k) const {
    return TimePoint::at_ps(offset_ps +
                            period_ps * static_cast<std::int64_t>(k));
  }
};

/// earliest(k) on a repeating intra-cycle grid: token k of cycle c = k/n
/// releases at c*period + offsets[k%n] (n = offsets.size()). The LTE
/// subframe grid — 14 symbols per 1 ms subframe — is the motivating case:
/// exactly periodic with vector period n, which PeriodicTimeFn (n = 1)
/// cannot express.
struct CyclicTimeFn {
  std::int64_t period_ps = 0;  ///< cycle length
  std::shared_ptr<const std::vector<std::int64_t>> offsets_ps;
  TimePoint operator()(std::uint64_t k) const {
    const auto n = static_cast<std::uint64_t>(offsets_ps->size());
    return TimePoint::at_ps(
        period_ps * static_cast<std::int64_t>(k / n) +
        (*offsets_ps)[static_cast<std::size_t>(k % n)]);
  }
};

/// Constant gap / consume delay.
struct ConstantDurationFn {
  std::int64_t ps = 0;
  Duration operator()(std::uint64_t) const { return Duration::ps(ps); }
};

/// Per-token gap / consume delay table.
struct TableDurationFn {
  std::shared_ptr<const std::vector<std::int64_t>> values_ps;
  Duration operator()(std::uint64_t k) const {
    return Duration::ps(values_ps->at(k));
  }
};

/// Gap / consume delay cycling through a fixed table by k.
struct CyclicDurationFn {
  std::shared_ptr<const std::vector<std::int64_t>> values_ps;
  Duration operator()(std::uint64_t k) const {
    return Duration::ps(
        (*values_ps)[static_cast<std::size_t>(k % values_ps->size())]);
  }
};

/// Every token carries the same attributes.
struct ConstantAttrsFn {
  model::TokenAttrs attrs;
  model::TokenAttrs operator()(std::uint64_t) const { return attrs; }
};

/// Per-token attribute table.
struct TableAttrsFn {
  std::shared_ptr<const std::vector<model::TokenAttrs>> table;
  model::TokenAttrs operator()(std::uint64_t k) const {
    return table->at(k);
  }
};

/// Attributes cycling through a fixed table by k (the LTE symbol pattern:
/// attrs depend only on the symbol index within the subframe).
struct CyclicAttrsFn {
  std::shared_ptr<const std::vector<model::TokenAttrs>> table;
  model::TokenAttrs operator()(std::uint64_t k) const {
    return (*table)[static_cast<std::size_t>(k % table->size())];
  }
};

/// A load that is a pure function of the token attributes — k-independent
/// by construction, carried as a plain function pointer. The opcode layer
/// files it as kAttrsPure and calls the pointer directly (no std::function
/// hop), and the adaptive certifier sees through it: with P-periodic
/// attributes the load is P-periodic too. The pointer does not serialize,
/// so the serve wire writes it as an opaque load.
struct AttrsPureFn {
  std::int64_t (*fn)(const model::TokenAttrs&) = nullptr;
  std::int64_t operator()(const model::TokenAttrs& a, std::uint64_t) const {
    return fn(a);
  }
};

}  // namespace maxev::model
