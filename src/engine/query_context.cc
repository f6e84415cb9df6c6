#include "engine/query_context.h"

#include <algorithm>

namespace bigindex {

void ConeScratch::EnsureSize(size_t num_vertices) {
  if (dist.size() < num_vertices) {
    dist.resize(num_vertices, kInfDistance);
    witness.resize(num_vertices, kInvalidVertex);
    parent.resize(num_vertices);
  }
}

void ConeScratch::Release() {
  for (VertexId v : queue) dist[v] = kInfDistance;
  for (VertexId v : resolved) witness[v] = kInvalidVertex;
  queue.clear();
  resolved.clear();
}

void BallCache::SwitchTo(const Graph* g, uint32_t radius) {
  if (graph != g || radius_ != radius) {
    balls.clear();
    graph = g;
    radius_ = radius;
  }
}

ConeScratch& QueryContext::Cone(size_t i, size_t num_vertices) {
  while (bfs_.size() <= i) bfs_.push_back(std::make_unique<ConeScratch>());
  ConeScratch& scratch = *bfs_[i];
  scratch.EnsureSize(num_vertices);
  return scratch;
}

std::vector<uint32_t>& QueryContext::ZeroedVertexArray(size_t slot,
                                                       size_t num_vertices) {
  if (vertex_arrays_.size() <= slot) vertex_arrays_.resize(slot + 1);
  std::vector<uint32_t>& a = vertex_arrays_[slot];
  a.assign(num_vertices, 0);
  return a;
}

std::vector<VertexId>& QueryContext::VertexScratch(size_t slot) {
  if (vertex_scratch_.size() <= slot) vertex_scratch_.resize(slot + 1);
  vertex_scratch_[slot].clear();
  return vertex_scratch_[slot];
}

std::unordered_set<VertexId>& QueryContext::VertexSet() {
  vertex_set_.clear();
  return vertex_set_;
}

std::unordered_set<std::string>& QueryContext::KeySet() {
  key_set_.clear();
  return key_set_;
}

std::string& QueryContext::KeyBuffer() {
  key_buffer_.clear();
  return key_buffer_;
}

std::vector<std::pair<uint32_t, VertexId>>& QueryContext::BestPerKeyword() {
  best_per_keyword_.clear();
  return best_per_keyword_;
}

}  // namespace bigindex
