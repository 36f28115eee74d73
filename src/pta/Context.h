//===-- pta/Context.h - Interned calling contexts -------------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Calling contexts are bounded sequences of context elements; an element
/// is a call site (k-CFA), an abstract object (k-obj) or a class type
/// (k-type), stored as its raw 32-bit id. Contexts are interned so a
/// ContextId is a dense index and context comparison is id comparison.
/// ContextId 0 is always the empty context.
///
/// The table is a prefix trie over one FlatMap64 keyed by (parent trie
/// node, element). A context is the trie node its elements lead to from
/// the root, so push and truncate make one flat probe per element kept
/// (push onto a context shorter than the limit makes exactly one, from
/// the base's own node) and allocate only when a new context is born.
/// Trie nodes a walk passes through are not contexts until some push or
/// truncate ends on them, so ids stay dense and in first-seen order.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_CONTEXT_H
#define MAHJONG_PTA_CONTEXT_H

#include "support/FlatHash.h"
#include "support/Ids.h"

#include <vector>

namespace mahjong::pta {

/// Raw payload of a context element (call-site, object, or type id).
using CtxElem = uint32_t;

/// Interning table for calling contexts.
class ContextTable {
public:
  ContextTable();

  /// The empty context (always id 0).
  ContextId empty() const { return ContextId(0); }

  /// Appends \p Elem to \p Base, keeping only the most recent \p Limit
  /// elements.
  ContextId push(ContextId Base, CtxElem Elem, unsigned Limit);

  /// Keeps only the most recent \p Limit elements of \p C.
  ContextId truncate(ContextId C, unsigned Limit);

  /// The elements of \p C, oldest first. The reference is invalidated by
  /// the next push or truncate that interns a new context.
  const std::vector<CtxElem> &elems(ContextId C) const {
    assert(C.idx() < Elems.size() && "context id out of range");
    return Elems[C.idx()];
  }

  /// Number of distinct contexts interned so far.
  uint32_t size() const { return static_cast<uint32_t>(Elems.size()); }

private:
  /// The child of trie node \p Node along \p Elem, created if absent.
  uint32_t child(uint32_t Node, CtxElem Elem);

  /// The trie node reached from the root along [First, Last).
  uint32_t descend(const CtxElem *First, const CtxElem *Last);

  /// The context at trie node \p Node; \p Make builds its elements if it
  /// is new (called before the context is stored, so it may read
  /// elems()).
  template <typename MakeElems>
  ContextId contextAt(uint32_t Node, MakeElems Make);

  FlatMap64 Children;             ///< (parent node << 32 | elem) -> node
  std::vector<uint32_t> NodeCtx;  ///< trie node -> context id or NoContext
  std::vector<uint32_t> CtxNode;  ///< context id -> trie node
  std::vector<std::vector<CtxElem>> Elems; ///< context id -> elements

  static constexpr uint32_t NoContext = 0xFFFFFFFFu;
};

} // namespace mahjong::pta

#endif // MAHJONG_PTA_CONTEXT_H
