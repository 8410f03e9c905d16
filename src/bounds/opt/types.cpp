#include "bounds/opt/types.hpp"

namespace soap::bounds::opt {

const char* result_code_name(ResultCode code) noexcept {
  switch (code) {
    case ResultCode::kSuccess:
      return "success";
    case ResultCode::kStopReached:
      return "stop_reached";
    case ResultCode::kNoConverge:
      return "no_converge";
    case ResultCode::kInfeasible:
      return "infeasible";
  }
  return "unknown";
}

const char* backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kNelderMead:
      return "nelder_mead";
    case BackendKind::kMultistart:
      return "multistart";
    case BackendKind::kSubplex:
      return "subplex";
  }
  return "unknown";
}

}  // namespace soap::bounds::opt
