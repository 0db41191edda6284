#include "sim/kobject.h"

#include <algorithm>

#include "sim/filesystem.h"
#include "sim/mutation.h"

namespace ballista::sim {

void KernelObject::set_signaled(bool s) {
  // Only an actual flip is a persistence point — re-signaling a signaled
  // event mutates nothing.
  if (s != signaled_ && hub_ != nullptr)
    hub_->notify(MutationKind::kHandleSignal,
                 static_cast<std::uint64_t>(kind_));
  signaled_ = s;
}

std::uint64_t FileObject::remaining() const noexcept {
  if (node_ == nullptr || node_->is_dir()) return 0;
  const std::uint64_t size = node_->data().size();
  return pos_ < size ? size - pos_ : 0;
}

std::uint64_t FileObject::read_at(std::span<std::uint8_t> out) {
  const std::uint64_t n = std::min<std::uint64_t>(out.size(), remaining());
  if (n == 0) return 0;
  std::copy_n(node_->data().begin() + static_cast<std::ptrdiff_t>(pos_), n,
              out.begin());
  pos_ += n;
  return n;
}

std::uint64_t FileObject::write_at(std::span<const std::uint8_t> in) {
  if (node_ == nullptr || node_->is_dir()) return 0;
  if (!in.empty() && mutation_hub() != nullptr)
    mutation_hub()->notify(MutationKind::kFsData, in.size());
  auto& data = node_->data();
  if (append_) pos_ = data.size();
  if (pos_ + in.size() > data.size()) data.resize(pos_ + in.size());
  std::copy(in.begin(), in.end(),
            data.begin() + static_cast<std::ptrdiff_t>(pos_));
  pos_ += in.size();
  return in.size();
}

std::string_view object_kind_name(ObjectKind k) noexcept {
  switch (k) {
    case ObjectKind::kFile: return "File";
    case ObjectKind::kDirectory: return "Directory";
    case ObjectKind::kFindHandle: return "FindHandle";
    case ObjectKind::kEvent: return "Event";
    case ObjectKind::kMutex: return "Mutex";
    case ObjectKind::kSemaphore: return "Semaphore";
    case ObjectKind::kThread: return "Thread";
    case ObjectKind::kProcess: return "Process";
    case ObjectKind::kHeap: return "Heap";
    case ObjectKind::kPipe: return "Pipe";
    case ObjectKind::kModule: return "Module";
    case ObjectKind::kStdStream: return "StdStream";
    case ObjectKind::kSocket: return "Socket";
  }
  return "Unknown";
}

std::uint64_t HandleTable::insert(std::shared_ptr<KernelObject> obj) {
  std::uint64_t h;
  if (posix_numbering_) {
    h = lowest_free(0);
  } else {
    h = next_win32_;
    next_win32_ += 4;
  }
  obj->bind_mutation_hub(hub_);
  if (hub_ != nullptr) hub_->notify(MutationKind::kHandleCreate, h);
  table_.emplace(h, std::move(obj));
  return h;
}

void HandleTable::insert_at(std::uint64_t h, std::shared_ptr<KernelObject> obj) {
  obj->bind_mutation_hub(hub_);
  if (hub_ != nullptr) hub_->notify(MutationKind::kHandleCreate, h);
  table_[h] = std::move(obj);
}

std::shared_ptr<KernelObject> HandleTable::get(std::uint64_t h) const noexcept {
  auto it = table_.find(h);
  return it == table_.end() ? nullptr : it->second;
}

bool HandleTable::close(std::uint64_t h) {
  auto it = table_.find(h);
  if (it == table_.end()) return false;  // no mutation, no point
  if (hub_ != nullptr) hub_->notify(MutationKind::kHandleClose, h);
  table_.erase(it);
  return true;
}

std::uint64_t HandleTable::lowest_free(std::uint64_t min) const noexcept {
  std::uint64_t h = min;
  for (auto it = table_.lower_bound(min); it != table_.end() && it->first == h;
       ++it) {
    ++h;
  }
  return h;
}

}  // namespace ballista::sim
