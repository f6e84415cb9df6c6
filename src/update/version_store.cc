#include "update/version_store.h"

#include <utility>

namespace bigindex {

uint64_t IndexVersionStore::Publish(std::shared_ptr<const BigIndex> index,
                                    std::shared_ptr<const QueryEngine> engine) {
  auto version = std::make_shared<IndexVersion>();
  version->index = std::move(index);
  version->engine = std::move(engine);
  std::lock_guard<std::mutex> lock(mutex_);
  version->sequence = next_sequence_++;
  previous_ = std::move(current_);
  current_ = std::move(version);
  return current_->sequence;
}

std::shared_ptr<const IndexVersion> IndexVersionStore::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::shared_ptr<const IndexVersion> IndexVersionStore::Previous() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return previous_;
}

StatusOr<uint64_t> IndexVersionStore::Rollback() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (previous_ == nullptr) {
    return Status::FailedPrecondition("no previous index version retained");
  }
  auto version = std::make_shared<IndexVersion>(*previous_);
  version->sequence = next_sequence_++;
  current_ = std::move(version);
  previous_ = nullptr;  // consumed: rollback cannot ping-pong
  return current_->sequence;
}

}  // namespace bigindex
