#include "ripple/core/wait_queue.hpp"

#include "ripple/common/error.hpp"

namespace ripple::core {

void WaitQueue::push(Key key, Entry entry) {
  ensure(by_uid_.emplace(entry.request.uid, key).second, Errc::invalid_state,
         "wait queue: uid '", entry.request.uid, "' already queued");
  const bool inserted = queue_.emplace(key, std::move(entry)).second;
  ensure(inserted, Errc::internal, "wait queue: duplicate sequence");
}

bool WaitQueue::erase_uid(const std::string& uid) {
  const auto it = by_uid_.find(uid);
  if (it == by_uid_.end()) return false;
  queue_.erase(it->second);
  by_uid_.erase(it);
  return true;
}

WaitQueue::iterator WaitQueue::erase(iterator position) {
  by_uid_.erase(position->second.request.uid);
  return queue_.erase(position);
}

}  // namespace ripple::core
