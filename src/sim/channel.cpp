#include "sim/channel.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sssw::sim {

Message Channel::take(util::Rng& rng) {
  SSSW_CHECK(!empty());
  const std::size_t idx = rng.below(size());
  const Message message = buf_[idx];
  buf_[idx] = buf_.back();
  buf_.pop_back();
  return message;
}

std::size_t Channel::purge_references(Id id) {
  return std::erase_if(
      buf_, [id](const Message& message) { return references(message, id); });
}

}  // namespace sssw::sim
