#include "uavdc/orienteering/solver.hpp"

#include "uavdc/orienteering/exact.hpp"
#include "uavdc/orienteering/greedy.hpp"

namespace uavdc::orienteering {

std::string to_string(SolverKind kind) {
    switch (kind) {
        case SolverKind::kExact:
            return "exact";
        case SolverKind::kGreedy:
            return "greedy";
        case SolverKind::kGrasp:
            return "grasp";
        case SolverKind::kIls:
            return "ils";
    }
    return "unknown";
}

Solution solve(const Problem& p, SolverKind kind,
               const GraspConfig& grasp_cfg) {
    switch (kind) {
        case SolverKind::kExact:
            return solve_exact(p);
        case SolverKind::kGreedy:
            return solve_greedy(p);
        case SolverKind::kGrasp:
            return solve_grasp(p, grasp_cfg);
        case SolverKind::kIls:
            return solve_ils(p);
    }
    return solve_greedy(p);
}

}  // namespace uavdc::orienteering
