#include "service/prefetch.h"

#include <algorithm>

namespace qagview::service {

namespace {

/// Speculative builds issued per observed foreground move.
constexpr int kMaxPredictions = 2;

}  // namespace

std::vector<int> ExplorationPredictor::NextLevels(study::MoveKind kind,
                                                  int level,
                                                  int num_answers) const {
  // Ask the model for extra candidates: clamping and dedup below may
  // collapse some (e.g. +1 and +2 both clamp to num_answers).
  const std::vector<int> deltas = study::NextMoveModel::Default().PredictDeltaL(
      kind, kMaxPredictions + 2);
  std::vector<int> out;
  for (int delta : deltas) {
    if (static_cast<int>(out.size()) >= kMaxPredictions) break;
    const int target =
        std::min(std::max(level + delta, 1), std::max(num_answers, 1));
    if (target == level) continue;
    if (std::find(out.begin(), out.end(), target) != out.end()) continue;
    out.push_back(target);
  }
  return out;
}

std::vector<int> ExplorationPredictor::InitialLevels(int num_answers) const {
  const std::vector<int> levels =
      study::NextMoveModel::Default().PredictInitialL(kMaxPredictions + 2);
  std::vector<int> out;
  for (int level : levels) {
    if (static_cast<int>(out.size()) >= kMaxPredictions) break;
    const int target = std::min(std::max(level, 1), std::max(num_answers, 1));
    if (std::find(out.begin(), out.end(), target) != out.end()) continue;
    out.push_back(target);
  }
  return out;
}

}  // namespace qagview::service
