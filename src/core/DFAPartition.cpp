//===-- core/DFAPartition.cpp - Global behavioral partition -----------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DFAPartition.h"

#include "support/Interner.h"

#include <algorithm>
#include <numeric>

using namespace mahjong;
using namespace mahjong::core;

namespace {

/// A refinable partition of {0, ..., N-1} (Valmari & Lehtinen). Each set
/// is a contiguous range of Elems; marking an element swaps it to the
/// front of its set's range, and split() cuts every touched set into its
/// marked and unmarked parts, the smaller part taking a new set id.
class RefinablePartition {
public:
  /// The partition by equal \p Key, sets numbered in ascending key order.
  explicit RefinablePartition(const std::vector<uint32_t> &Key)
      : Elems(Key.size()), Loc(Key.size()), SetOf(Key.size()) {
    std::iota(Elems.begin(), Elems.end(), 0u);
    std::stable_sort(Elems.begin(), Elems.end(),
                     [&](uint32_t A, uint32_t B) { return Key[A] < Key[B]; });
    for (uint32_t I = 0; I < Elems.size(); ++I) {
      if (I == 0 || Key[Elems[I]] != Key[Elems[I - 1]]) {
        if (I != 0)
          End.push_back(I);
        First.push_back(I);
      }
      Loc[Elems[I]] = I;
      SetOf[Elems[I]] = First.size() - 1;
    }
    if (!Elems.empty())
      End.push_back(Elems.size());
    Marked.assign(First.size(), 0);
  }

  uint32_t numSets() const { return First.size(); }
  uint32_t setOf(uint32_t E) const { return SetOf[E]; }
  uint32_t first(uint32_t S) const { return First[S]; }
  uint32_t end(uint32_t S) const { return End[S]; }
  uint32_t elemAt(uint32_t Pos) const { return Elems[Pos]; }

  void mark(uint32_t E) {
    uint32_t S = SetOf[E], I = Loc[E], J = First[S] + Marked[S];
    if (I < J)
      return; // already marked
    Elems[I] = Elems[J];
    Loc[Elems[I]] = I;
    Elems[J] = E;
    Loc[E] = J;
    if (Marked[S]++ == 0)
      Touched.push_back(S);
  }

  void split() {
    while (!Touched.empty()) {
      uint32_t S = Touched.back();
      Touched.pop_back();
      uint32_t J = First[S] + Marked[S];
      Marked[S] = 0;
      if (J == End[S])
        continue; // every element marked: nothing to cut
      uint32_t New = First.size();
      if (J - First[S] <= End[S] - J) {
        First.push_back(First[S]);
        End.push_back(J);
        First[S] = J;
      } else {
        First.push_back(J);
        End.push_back(End[S]);
        End[S] = J;
      }
      Marked.push_back(0);
      for (uint32_t I = First[New]; I < End[New]; ++I)
        SetOf[Elems[I]] = New;
    }
  }

private:
  std::vector<uint32_t> Elems, Loc, SetOf, First, End, Marked, Touched;
};

} // namespace

DFAPartition::DFAPartition(DFACache &Cache) {
  // Every interned state takes part. After the heap modeler's build phase
  // this expands nothing; the bound is re-read because expansion interns.
  for (uint32_t I = 0; I < Cache.numStates(); ++I)
    (void)Cache.transitions(DFAStateId(I));
  const DFACache &C = Cache;
  uint32_t N = C.numStates();

  // Initial partition: by output set. Outputs determine whether a state
  // contains o_null (the null type is only ever output by o_null), so the
  // default sink is uniform within a block.
  std::vector<uint32_t> OutKey(N);
  {
    Interner<Id<struct OutTag>, std::vector<uint32_t>, VectorHash> OutIds;
    std::vector<uint32_t> Key;
    for (uint32_t I = 0; I < N; ++I) {
      Key.clear();
      for (TypeId T : C.outputs(DFAStateId(I)))
        Key.push_back(T.idx());
      OutKey[I] = OutIds.intern(Key).idx();
    }
  }

  // The partial transition function: every edge except those to the
  // state's own default sink.
  std::vector<uint32_t> Tail, Label, Head;
  for (uint32_t I = 0; I < N; ++I) {
    DFAStateId Sink = C.defaultSink(DFAStateId(I));
    for (const auto &[F, T] : C.transitions(DFAStateId(I)))
      if (T != Sink) {
        Tail.push_back(I);
        Label.push_back(F.idx());
        Head.push_back(T.idx());
      }
  }
  // Incoming edges per state, as offsets into InEdges.
  std::vector<uint32_t> InStart(N + 1, 0), InEdges(Head.size());
  for (uint32_t H : Head)
    ++InStart[H + 1];
  std::partial_sum(InStart.begin(), InStart.end(), InStart.begin());
  {
    std::vector<uint32_t> Fill(InStart.begin(), InStart.end() - 1);
    for (uint32_t E = 0; E < Head.size(); ++E)
      InEdges[Fill[Head[E]]++] = E;
  }

  // Blocks partition the states, cords the edges (initially by label).
  // Splitting the blocks by a cord separates the states that have an edge
  // in it; splitting the cords by a block separates the edges into it.
  // Block 0 is never used as a splitter: the initial cords already split
  // by "has an f-edge at all", so block 0's effect follows from the rest.
  RefinablePartition Blocks(OutKey), Cords(Label);
  uint32_t NextBlock = 1;
  for (uint32_t Cord = 0; Cord < Cords.numSets(); ++Cord) {
    for (uint32_t Pos = Cords.first(Cord); Pos < Cords.end(Cord); ++Pos)
      Blocks.mark(Tail[Cords.elemAt(Pos)]);
    Blocks.split();
    for (; NextBlock < Blocks.numSets(); ++NextBlock) {
      for (uint32_t Pos = Blocks.first(NextBlock);
           Pos < Blocks.end(NextBlock); ++Pos) {
        uint32_t S = Blocks.elemAt(Pos);
        for (uint32_t I = InStart[S]; I < InStart[S + 1]; ++I)
          Cords.mark(InEdges[I]);
      }
      Cords.split();
    }
  }

  Block.resize(N);
  for (uint32_t I = 0; I < N; ++I)
    Block[I] = Blocks.setOf(I);
  NumBlocks = Blocks.numSets();
}
