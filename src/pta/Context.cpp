//===-- pta/Context.cpp - Interned calling contexts ------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/Context.h"

#include <algorithm>

using namespace mahjong;
using namespace mahjong::pta;

ContextTable::ContextTable() : NodeCtx{0}, CtxNode{0}, Elems(1) {
  // Trie node 0, the root, is the empty context, id 0.
}

uint32_t ContextTable::child(uint32_t Node, CtxElem Elem) {
  uint64_t Key = (static_cast<uint64_t>(Node) << 32) | Elem;
  auto [Child, Inserted] =
      Children.tryEmplace(Key, static_cast<uint32_t>(NodeCtx.size()));
  if (Inserted)
    NodeCtx.push_back(NoContext);
  return Child;
}

uint32_t ContextTable::descend(const CtxElem *First, const CtxElem *Last) {
  uint32_t Node = 0;
  for (; First != Last; ++First)
    Node = child(Node, *First);
  return Node;
}

template <typename MakeElems>
ContextId ContextTable::contextAt(uint32_t Node, MakeElems Make) {
  if (NodeCtx[Node] != NoContext)
    return ContextId(NodeCtx[Node]);
  std::vector<CtxElem> New = Make();
  uint32_t Id = size();
  NodeCtx[Node] = Id;
  CtxNode.push_back(Node);
  Elems.push_back(std::move(New));
  return ContextId(Id);
}

ContextId ContextTable::push(ContextId Base, CtxElem Elem, unsigned Limit) {
  if (Limit == 0)
    return empty();
  const std::vector<CtxElem> &B = elems(Base);
  // Keep the newest Limit - 1 elements of Base, then Elem. When all of
  // Base is kept, its own trie node is the prefix: one probe in all.
  size_t Keep = std::min<size_t>(B.size(), Limit - 1);
  const CtxElem *First = B.data() + (B.size() - Keep), *Last = First + Keep;
  uint32_t Prefix =
      Keep == B.size() ? CtxNode[Base.idx()] : descend(First, Last);
  return contextAt(child(Prefix, Elem), [&] {
    std::vector<CtxElem> New(First, Last);
    New.push_back(Elem);
    return New;
  });
}

ContextId ContextTable::truncate(ContextId C, unsigned Limit) {
  const std::vector<CtxElem> &E = elems(C);
  if (E.size() <= Limit)
    return C;
  const CtxElem *Last = E.data() + E.size(), *First = Last - Limit;
  return contextAt(descend(First, Last),
                   [&] { return std::vector<CtxElem>(First, Last); });
}
