#include "tdg/ops.hpp"

namespace maxev::tdg::ops {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kOpaqueClosure: return "OpaqueClosure";
    case Kind::kFixedWeight: return "FixedWeight";
    case Kind::kRateConstant: return "RateConstant";
    case Kind::kLinearOps: return "LinearOps";
    case Kind::kParamOps: return "ParamOps";
    case Kind::kCyclicOps: return "CyclicOps";
    case Kind::kAttrsPure: return "AttrsPure";
    case Kind::kTableTime: return "TableTime";
    case Kind::kPeriodicTime: return "PeriodicTime";
  }
  return "?";
}

Kind classify_load(const model::LoadFn& f) {
  if (f.target<model::ConstantOpsFn>() != nullptr) return Kind::kRateConstant;
  if (f.target<model::LinearOpsFn>() != nullptr) return Kind::kLinearOps;
  if (f.target<model::ParamOpsFn>() != nullptr) return Kind::kParamOps;
  if (f.target<model::CyclicOpsFn>() != nullptr) return Kind::kCyclicOps;
  if (f.target<model::AttrsPureFn>() != nullptr) return Kind::kAttrsPure;
  return Kind::kOpaqueClosure;
}

LoadTable compile_loads(const std::vector<model::LoadFn>& loads) {
  LoadTable t;
  const std::size_t n = loads.size();
  t.kind.assign(n, 0);
  t.a.assign(n, 0);
  t.b.assign(n, 0);
  t.scale.assign(n, 0.0);
  t.index.assign(n, 0);
  t.len.assign(n, 0);
  t.fn.assign(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    const Kind k = classify_load(loads[i]);
    t.kind[i] = static_cast<std::uint8_t>(k);
    switch (k) {
      case Kind::kRateConstant:
        t.a[i] = loads[i].target<model::ConstantOpsFn>()->ops;
        break;
      case Kind::kLinearOps: {
        const auto* fn = loads[i].target<model::LinearOpsFn>();
        t.a[i] = fn->base;
        t.b[i] = fn->per_unit;
        break;
      }
      case Kind::kParamOps: {
        const auto* fn = loads[i].target<model::ParamOpsFn>();
        t.a[i] = fn->base;
        t.scale[i] = fn->scale;
        t.index[i] = static_cast<std::int32_t>(fn->param_index);
        break;
      }
      case Kind::kCyclicOps: {
        const auto* fn = loads[i].target<model::CyclicOpsFn>();
        t.index[i] = static_cast<std::int32_t>(t.cyc.size());
        t.len[i] = static_cast<std::int32_t>(fn->table.size());
        t.cyc.insert(t.cyc.end(), fn->table.begin(), fn->table.end());
        break;
      }
      case Kind::kAttrsPure:
        t.fn[i] = loads[i].target<model::AttrsPureFn>()->fn;
        break;
      default:
        ++t.opaque;
        break;
    }
  }
  return t;
}

}  // namespace maxev::tdg::ops
