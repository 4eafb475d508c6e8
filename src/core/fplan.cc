#include "core/fplan.h"

#include <sstream>

namespace fdb {

namespace {

std::string AttrName(AttrId a, const Catalog* cat) {
  if (cat != nullptr && a < cat->num_attrs()) return cat->attr(a).name;
  return "a" + std::to_string(a);
}

}  // namespace

std::string PlanStep::ToString(const Catalog* cat) const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kSwap:
      os << "swap(" << AttrName(a, cat) << "," << AttrName(b, cat) << ")";
      break;
    case Kind::kPushUp:
      os << "pushup(" << AttrName(b, cat) << ")";
      break;
    case Kind::kMerge:
      os << "merge(" << AttrName(a, cat) << "=" << AttrName(b, cat) << ")";
      break;
    case Kind::kAbsorb:
      os << "absorb(" << AttrName(a, cat) << "=" << AttrName(b, cat) << ")";
      break;
    case Kind::kNormalize:
      os << "normalize";
      break;
    case Kind::kSelectConst:
      os << "select(" << AttrName(a, cat) << CmpOpName(op) << value << ")";
      break;
    case Kind::kProject:
      os << "project(" << keep.ToString() << ")";
      break;
  }
  return os.str();
}

std::string FPlan::ToString(const Catalog* cat) const {
  std::ostringstream os;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i) os << " ; ";
    os << steps[i].ToString(cat);
  }
  return os.str();
}

FRep ExecuteStep(const FRep& in, const PlanStep& step) {
  switch (step.kind) {
    case PlanStep::Kind::kSwap:
      return Swap(in, step.a, step.b);
    case PlanStep::Kind::kPushUp:
      return PushUp(in, step.b);
    case PlanStep::Kind::kMerge:
      return Merge(in, step.a, step.b);
    case PlanStep::Kind::kAbsorb:
      return Absorb(in, step.a, step.b);
    case PlanStep::Kind::kNormalize:
      return Normalize(in);
    case PlanStep::Kind::kSelectConst:
      return SelectConst(in, step.a, step.op, step.value);
    case PlanStep::Kind::kProject:
      return Project(in, step.keep);
  }
  throw FdbError("unknown plan step");
}

FRep ExecutePlan(const FRep& in, const FPlan& plan) {
  FRep cur = in;
  for (const PlanStep& s : plan.steps) cur = ExecuteStep(cur, s);
  return cur;
}

FTree SimulateStepOnTree(const FTree& t, const PlanStep& step) {
  FTree out = t;
  switch (step.kind) {
    case PlanStep::Kind::kSwap: {
      int a = out.FindAttr(step.a), b = out.FindAttr(step.b);
      FDB_CHECK(a >= 0 && b >= 0);
      out.SwapTree(a, b);
      return out;
    }
    case PlanStep::Kind::kPushUp: {
      int b = out.FindAttr(step.b);
      FDB_CHECK(b >= 0);
      out.PushUpTree(b);
      return out;
    }
    case PlanStep::Kind::kMerge: {
      int a = out.FindAttr(step.a), b = out.FindAttr(step.b);
      FDB_CHECK(a >= 0 && b >= 0);
      if (a != b) out.MergeTree(a, b);
      return out;
    }
    case PlanStep::Kind::kAbsorb: {
      int a = out.FindAttr(step.a), b = out.FindAttr(step.b);
      FDB_CHECK(a >= 0 && b >= 0);
      if (a == b) return out;
      if (out.IsAncestor(b, a)) std::swap(a, b);
      out.FuseTree(a, b);
      out.NormalizeTree();
      return out;
    }
    case PlanStep::Kind::kNormalize:
      out.NormalizeTree();
      return out;
    case PlanStep::Kind::kSelectConst: {
      int a = out.FindAttr(step.a);
      FDB_CHECK(a >= 0);
      if (step.op == CmpOp::kEq) {
        out.node(a).constant = true;
        out.NormalizeTree();
      }
      return out;
    }
    case PlanStep::Kind::kProject:
      out.ProjectTree(step.keep);
      return out;
  }
  throw FdbError("unknown plan step");
}

}  // namespace fdb
