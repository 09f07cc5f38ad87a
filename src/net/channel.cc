#include "src/net/channel.h"

#include <algorithm>

namespace vlora {
namespace net {

Status Channel::Send(MessageType type, const std::string& body) {
  const std::string frame = EncodeFrame(type, body);
  MutexLock lock(&send_mutex_);
  return SendAll(fd_, frame.data(), frame.size());
}

Status SendKvHandle(Channel& channel, const KvHandle& handle) {
  // Each message's field list, run straight over the handle: the messages
  // would hold a copy of every page.
  WireWriter meta;
  KvHandleMetaFields(meta, handle);
  VLORA_RETURN_IF_ERROR(channel.Send(MessageType::kKvHandleMeta, meta.Take()));
  for (size_t i = 0; i < handle.pages.size(); ++i) {
    const struct {
      int64_t request_id;
      int64_t page_index;
      const std::vector<float>& data;
    } page{handle.request_id, static_cast<int64_t>(i), handle.pages[i].data};
    WireWriter writer;
    KvPageMessage::Fields(writer, page);
    VLORA_RETURN_IF_ERROR(channel.Send(MessageType::kKvPage, writer.Take()));
  }
  return Status::Ok();
}

bool KvHandleReceiver::Accept(const Envelope& envelope) {
  if (envelope.type == MessageType::kKvHandleMeta) {
    Result<KvHandleMetaMessage> meta = DecodeAs<KvHandleMetaMessage>(envelope);
    if (!meta.ok()) {
      return false;
    }
    KvHandle& handle = meta.value().handle;
    assembling_[handle.request_id] = std::make_shared<KvHandle>(std::move(handle));
    return true;
  }
  Result<KvPageMessage> page = DecodeAs<KvPageMessage>(envelope);
  if (!page.ok()) {
    return false;
  }
  auto it = assembling_.find(page.value().request_id);
  if (it == assembling_.end() ||
      page.value().page_index >= static_cast<int64_t>(it->second->pages.size())) {
    return false;
  }
  // Decoding rejects empty pages, so an empty slot is one still missing.
  std::vector<float>& data = it->second->pages[static_cast<size_t>(page.value().page_index)].data;
  if (!data.empty()) {
    return false;
  }
  data = std::move(page.value().data);
  return true;
}

std::shared_ptr<KvHandle> KvHandleReceiver::Take(int64_t request_id) {
  auto it = assembling_.find(request_id);
  if (it == assembling_.end() ||
      std::any_of(it->second->pages.begin(), it->second->pages.end(),
                  [](const KvPage& page) { return page.data.empty(); })) {
    return nullptr;
  }
  std::shared_ptr<KvHandle> handle = std::move(it->second);
  assembling_.erase(it);
  return handle;
}

Result<Envelope> Channel::Recv() {
  std::string payload;
  char chunk[16 * 1024];
  while (!assembler_.Next(&payload)) {
    if (assembler_.poisoned()) {
      return Status::OutOfRange("oversized frame on the wire");
    }
    Result<size_t> received = RecvSome(fd_, chunk, sizeof(chunk));
    if (!received.ok()) {
      return received.status();
    }
    VLORA_RETURN_IF_ERROR(assembler_.Feed(chunk, received.value()));
  }
  return DecodeEnvelope(payload);
}

}  // namespace net
}  // namespace vlora
