#include "search/bkws.h"

namespace bigindex {

std::vector<Answer> BackwardKeywordSearch(const Graph& g,
                                          const std::vector<LabelId>& keywords,
                                          const BkwsOptions& options,
                                          QueryContext& ctx) {
  KeywordCones cones(g, keywords, options.d_max, ctx);
  for (size_t i = 0; i < cones.size(); ++i) {
    while (!cones.Exhausted(i)) cones.ExpandLevel(i);
  }
  return cones.Answers(options.top_k);
}

std::vector<Answer> BackwardKeywordSearch(const Graph& g,
                                          const std::vector<LabelId>& keywords,
                                          const BkwsOptions& options) {
  QueryContext ctx;
  return BackwardKeywordSearch(g, keywords, options, ctx);
}

}  // namespace bigindex
