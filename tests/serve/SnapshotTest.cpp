//===-- tests/serve/SnapshotTest.cpp -----------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Format-level properties of the .mjsnap container: encode/decode
// round-trips, checksum and truncation detection, version gating, and
// forward-compatible skipping of unknown sections.
//
//===----------------------------------------------------------------------===//

#include "serve/Snapshot.h"

#include "../TestUtil.h"
#include "support/Hashing.h"
#include "support/Varint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace mahjong;
using namespace mahjong::serve;
using namespace mahjong::test;

namespace {

constexpr size_t HeaderSize = 6 + 4 + 8 + 8;

SnapshotData analyzedSnapshot() {
  Analyzed A = analyze(R"(
    class A {
      method m(p) { return p; }
    }
    class B extends A {
      method m(p) { return this; }
    }
    class Main {
      static method main() {
        a = new A;
        b = new B;
        x = a;
        x = b;
        r = x.m(b);
        c = (B) x;
      }
    }
  )");
  return buildSnapshot(*A.R);
}

void putFixed32(std::string &Buf, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putFixed64(std::string &Buf, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// Reassembles a well-formed file around \p Payload (correct checksum
/// and size), with \p Version in the header.
std::string assemble(const std::string &Payload,
                     uint32_t Version = SnapshotVersion) {
  std::string Out = "MJSNAP";
  putFixed32(Out, Version);
  putFixed64(Out, fnv1a64(Payload));
  putFixed64(Out, Payload.size());
  return Out + Payload;
}

} // namespace

TEST(Snapshot, EncodeDecodeRoundTrips) {
  SnapshotData D = analyzedSnapshot();
  std::string Bytes = encodeSnapshot(D);
  std::string Err;
  auto D2 = decodeSnapshot(Bytes, Err);
  ASSERT_TRUE(D2) << Err;
  EXPECT_EQ(D.AnalysisName, D2->AnalysisName);
  EXPECT_EQ(D.HeapName, D2->HeapName);
  ASSERT_EQ(D.Types.size(), D2->Types.size());
  for (size_t I = 0; I < D.Types.size(); ++I) {
    EXPECT_EQ(D.Types[I].Name, D2->Types[I].Name);
    EXPECT_EQ(D.Types[I].Kind, D2->Types[I].Kind);
    EXPECT_EQ(D.Types[I].Ancestors, D2->Types[I].Ancestors);
  }
  ASSERT_EQ(D.Vars.size(), D2->Vars.size());
  for (size_t I = 0; I < D.Vars.size(); ++I) {
    EXPECT_EQ(D.Vars[I].Name, D2->Vars[I].Name);
    EXPECT_EQ(D.Vars[I].Method, D2->Vars[I].Method);
    EXPECT_EQ(D.Vars[I].PtsSet, D2->Vars[I].PtsSet);
  }
  EXPECT_EQ(D.PtsSets, D2->PtsSets);
  ASSERT_EQ(D.Sites.size(), D2->Sites.size());
  for (size_t I = 0; I < D.Sites.size(); ++I)
    EXPECT_EQ(D.Sites[I].Callees, D2->Sites[I].Callees);
  ASSERT_EQ(D.Casts.size(), D2->Casts.size());
  ASSERT_EQ(D.Objs.size(), D2->Objs.size());
  for (size_t I = 0; I < D.Objs.size(); ++I) {
    EXPECT_EQ(D.Objs[I].Type, D2->Objs[I].Type);
    EXPECT_EQ(D.Objs[I].Method, D2->Objs[I].Method);
  }
  ASSERT_EQ(D.Methods.size(), D2->Methods.size());
  for (size_t I = 0; I < D.Methods.size(); ++I) {
    EXPECT_EQ(D.Methods[I].Signature, D2->Methods[I].Signature);
    EXPECT_EQ(D.Methods[I].Reachable, D2->Methods[I].Reachable);
  }
}

TEST(Snapshot, SaveLoadFileRoundTrips) {
  Analyzed A = analyze(R"(
    class Main { static method main() { x = new Main; } }
  )");
  std::string Path = testing::TempDir() + "/roundtrip.mjsnap";
  std::string Err;
  ASSERT_TRUE(saveSnapshot(*A.R, Path, Err)) << Err;
  auto D = loadSnapshot(Path, Err);
  ASSERT_TRUE(D) << Err;
  EXPECT_EQ(D->Vars.size(), A.P->numVars());
  EXPECT_EQ(D->Objs.size(), A.P->numObjs());
}

TEST(Snapshot, RejectsBadMagic) {
  std::string Err;
  EXPECT_EQ(decodeSnapshot("NOTASNAPFILE....", Err), nullptr);
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
}

TEST(Snapshot, RejectsCorruptedPayload) {
  std::string Bytes = encodeSnapshot(analyzedSnapshot());
  ASSERT_GT(Bytes.size(), HeaderSize + 10);
  Bytes[HeaderSize + 5] ^= 0x40;
  std::string Err;
  EXPECT_EQ(decodeSnapshot(Bytes, Err), nullptr);
  EXPECT_NE(Err.find("checksum"), std::string::npos) << Err;
}

TEST(Snapshot, RejectsTruncation) {
  std::string Bytes = encodeSnapshot(analyzedSnapshot());
  std::string Err;
  EXPECT_EQ(decodeSnapshot(Bytes.substr(0, Bytes.size() - 7), Err), nullptr);
  EXPECT_NE(Err.find("size mismatch"), std::string::npos) << Err;
  EXPECT_EQ(decodeSnapshot(Bytes.substr(0, 10), Err), nullptr);
}

TEST(Snapshot, GatesUnsupportedVersions) {
  std::string Bytes = encodeSnapshot(analyzedSnapshot());
  std::string Payload = Bytes.substr(HeaderSize);
  std::string Err;
  EXPECT_EQ(decodeSnapshot(assemble(Payload, SnapshotVersion + 1), Err),
            nullptr);
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  if (SnapshotMinSupported > 0) {
    EXPECT_EQ(decodeSnapshot(assemble(Payload, SnapshotMinSupported - 1),
                             Err),
              nullptr);
    EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  }
}

TEST(Snapshot, SkipsUnknownSectionsForForwardCompat) {
  std::string Bytes = encodeSnapshot(analyzedSnapshot());
  std::string Payload = Bytes.substr(HeaderSize);
  // A future writer appends a section this build knows nothing about.
  Payload.push_back(static_cast<char>(0xEE));
  putVarint(Payload, 5);
  Payload += "hello";
  std::string Err;
  auto D = decodeSnapshot(assemble(Payload), Err);
  ASSERT_TRUE(D) << Err;
  EXPECT_FALSE(D->Vars.empty());
}

TEST(Snapshot, RejectsDuplicateSections) {
  // A repeated section would overwrite the table earlier sections were
  // bound-checked against: SecObjs(N), SecPtsSets referencing up to N-1,
  // then SecObjs(1) would leave sets pointing past the object table.
  std::string Bytes = encodeSnapshot(analyzedSnapshot());
  std::string Payload = Bytes.substr(HeaderSize);
  std::string Body;
  putVarint(Body, 1); // one object
  putVarint(Body, 0); // type 0
  putVarint(Body, 0); // no allocating method
  Payload.push_back(static_cast<char>(6)); // SecObjs, again
  putVarint(Payload, Body.size());
  Payload += Body;
  std::string Err;
  EXPECT_EQ(decodeSnapshot(assemble(Payload), Err), nullptr);
  EXPECT_NE(Err.find("duplicate"), std::string::npos) << Err;
}

TEST(Snapshot, RejectsHugeEntryCounts) {
  // A tiny file claiming 2^40 entries must fail cleanly at decode, not
  // attempt a multi-terabyte resize and crash on bad_alloc.
  std::string Payload;
  std::string Body;
  putVarint(Body, uint64_t(1) << 40);
  Payload.push_back(static_cast<char>(5)); // SecVars
  putVarint(Payload, Body.size());
  Payload += Body;
  std::string Err;
  EXPECT_EQ(decodeSnapshot(assemble(Payload), Err), nullptr);
  EXPECT_NE(Err.find("malformed"), std::string::npos) << Err;
}

TEST(Snapshot, RejectsOutOfRangeIdListElements) {
  // The delta-encoded id lists must be validated against the final
  // tables: points-to sets against objects, callees against methods,
  // ancestors against types.
  {
    SnapshotData D = analyzedSnapshot();
    ASSERT_FALSE(D.PtsSets.empty());
    D.PtsSets.back().push_back(1u << 20);
    std::string Err;
    EXPECT_EQ(decodeSnapshot(encodeSnapshot(D), Err), nullptr);
  }
  {
    SnapshotData D = analyzedSnapshot();
    ASSERT_FALSE(D.Sites.empty());
    D.Sites[0].Callees.push_back(1u << 20);
    std::string Err;
    EXPECT_EQ(decodeSnapshot(encodeSnapshot(D), Err), nullptr);
  }
  {
    SnapshotData D = analyzedSnapshot();
    ASSERT_FALSE(D.Types.empty());
    D.Types[0].Ancestors.push_back(1u << 20);
    std::string Err;
    EXPECT_EQ(decodeSnapshot(encodeSnapshot(D), Err), nullptr);
  }
}

TEST(Snapshot, RejectsDanglingCrossReferences) {
  SnapshotData D = analyzedSnapshot();
  ASSERT_FALSE(D.Vars.empty());
  D.Vars[0].Method = 1u << 20; // beyond the method table
  std::string Err;
  EXPECT_EQ(decodeSnapshot(encodeSnapshot(D), Err), nullptr);
  EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
}

TEST(Snapshot, AncestorsMatchTheAllPairsSubtypeRelation) {
  // A twelve-deep class chain, arrays of arrays of it, Object arrays,
  // an unrelated class and the built-in null type: the hierarchy walk
  // must reproduce ClassHierarchy::isSubtype on every pair.
  std::string Src;
  Src += "class C0 { }\n";
  for (int I = 1; I < 12; ++I)
    Src += "class C" + std::to_string(I) + " extends C" +
           std::to_string(I - 1) + " { }\n";
  Src += R"(
    class Other { }
    class Main {
      static method main() {
        a = new C11[][];
        b = new C0[][][];
        c = new Object[][];
        d = new Object[];
        e = new C5[];
        f = (C3[][]) a;
        g = new Other[][];
        h = new C7[][][];
        n = null;
      }
    }
  )";
  Analyzed A = analyze(Src);
  const ir::Program &P = *A.P;
  SnapshotData D = buildSnapshot(*A.R);
  ASSERT_EQ(D.Types.size(), P.numTypes());
  bool NullType = false, NestedArray = false;
  unsigned MaxDepth = 0;
  for (uint32_t T = 0; T < P.numTypes(); ++T) {
    const ir::TypeInfo &TI = P.type(TypeId(T));
    NullType |= TI.Kind == ir::TypeKind::Null;
    NestedArray |= TI.Kind == ir::TypeKind::Array &&
                   P.type(TI.Elem).Kind == ir::TypeKind::Array;
    if (TI.Kind == ir::TypeKind::Class)
      MaxDepth = std::max(MaxDepth, A.CH->depth(TypeId(T)));
    const std::vector<uint32_t> &Anc = D.Types[T].Ancestors;
    EXPECT_TRUE(std::adjacent_find(Anc.begin(), Anc.end(),
                                   std::greater_equal<uint32_t>()) ==
                Anc.end())
        << TI.Name << ": ancestors not strictly ascending";
    for (uint32_t U = 0; U < P.numTypes(); ++U)
      EXPECT_EQ(D.isSubtype(T, U), A.CH->isSubtype(TypeId(T), TypeId(U)))
          << TI.Name << " <= " << P.type(TypeId(U)).Name;
  }
  EXPECT_TRUE(NullType);
  EXPECT_TRUE(NestedArray);
  EXPECT_GE(MaxDepth, 12u);
}

TEST(Snapshot, DedupSharesIdenticalSets) {
  // Ten copies of the same variable produce one shared set entry.
  Analyzed A = analyze(R"(
    class Main {
      static method main() {
        a = new Main;
        b = a; c = a; d = a; e = a; f = a; g = a; h = a; i = a; j = a;
      }
    }
  )");
  SnapshotData D = buildSnapshot(*A.R);
  uint32_t SetOfA = 0;
  unsigned Sharers = 0;
  for (uint32_t V = 0; V < D.Vars.size(); ++V) {
    if (D.Vars[V].Name == "a")
      SetOfA = D.Vars[V].PtsSet;
  }
  for (uint32_t V = 0; V < D.Vars.size(); ++V)
    Sharers += D.Vars[V].PtsSet == SetOfA;
  EXPECT_GE(Sharers, 10u);
  // And the dedup table is strictly smaller than the variable count.
  EXPECT_LT(D.PtsSets.size(), D.Vars.size());
}

TEST(Snapshot, WritesV1ForOldConsumersAndStillLoadsIt) {
  // analyzedSnapshot() as the last v1 writer (encodeSnapshot(D, 1)) wrote
  // it: plain delta lists in the dedup table. This build no longer writes
  // v1 but must keep decoding it (SnapshotMinSupported == 1) with content
  // identical to the current encoding.
  const char *V1Hex =
    "4d4a534e415001000000c37e1e4bef1a079ed900000000000000010e0263690a"
    "616c6c6f632d73697465022d05064f626a656374000100046e756c6c02050001"
    "01010101410002000201420003000201044d61696e00020004030100041c0305"
    "412e6d2f310105422e6d2f31010b4d61696e2e6d61696e2f300105550f047468"
    "6973000101700003042472657400030424657863000004746869730103017001"
    "0304247265740103042465786301000424726574020004246578630200016102"
    "0101620203017802020172020301630203060703010002030303070904000101"
    "020101010208060100020200010904010c0302";
  std::string V1;
  for (const char *P = V1Hex; P[0] && P[1]; P += 2)
    V1.push_back(static_cast<char>(std::stoi(std::string(P, 2), nullptr, 16)));
  std::string Err;
  auto D1 = decodeSnapshot(V1, Err);
  ASSERT_TRUE(D1) << Err;
  EXPECT_EQ(D1->FormatVersion, 1u);
  auto D2 = decodeSnapshot(encodeSnapshot(analyzedSnapshot()), Err);
  ASSERT_TRUE(D2) << Err;
  EXPECT_EQ(D2->FormatVersion, SnapshotVersion);

  EXPECT_EQ(D1->PtsSets, D2->PtsSets);
  ASSERT_EQ(D1->Vars.size(), D2->Vars.size());
  for (size_t I = 0; I < D1->Vars.size(); ++I) {
    EXPECT_EQ(D1->Vars[I].Name, D2->Vars[I].Name);
    EXPECT_EQ(D1->Vars[I].PtsSet, D2->Vars[I].PtsSet);
  }
  // Query-facing projection agrees fact for fact, and the content digest
  // does not depend on the wire version the file was written in.
  for (uint32_t V = 0; V < D1->Vars.size(); ++V)
    EXPECT_EQ(D1->ptsOfVar(V), D2->ptsOfVar(V)) << D1->varKey(V);
  EXPECT_EQ(snapshotDigest(*D1), snapshotDigest(*D2));
}

TEST(Snapshot, FrontCodingShrinksTheDedupTable) {
  // A chain of growing supersets: v2's shared-prefix encoding must beat
  // the v1 plain delta lists on exactly this near-identical-sets shape
  // (the regression gate for the front-coded format).
  std::string Src = R"(
    class Main {
      static method main() {
)";
  for (unsigned I = 0; I < 24; ++I) {
    Src += "        a" + std::to_string(I) + " = new Main;\n";
    Src += "        x" + std::to_string(I) + " = a" + std::to_string(I) +
           ";\n";
    if (I > 0)
      // xI accumulates all allocations up to I: sets share long prefixes.
      Src += "        x" + std::to_string(I) + " = x" +
             std::to_string(I - 1) + ";\n";
  }
  Src += R"(
      }
    }
  )";
  Analyzed A = analyze(Src);
  SnapshotData D = buildSnapshot(*A.R);

  // The table really is lexicographically sorted (the v2 invariant) and
  // keeps the empty set at index 0.
  ASSERT_FALSE(D.PtsSets.empty());
  EXPECT_TRUE(D.PtsSets[0].empty());
  EXPECT_TRUE(std::is_sorted(D.PtsSets.begin(), D.PtsSets.end()));

  // The v2 PtsSets section body (id 7), found by walking the sections.
  std::string V2 = encodeSnapshot(D);
  ByteReader R(std::string_view(V2).substr(HeaderSize));
  size_t FrontCoded = 0;
  while (R.remaining() > 0 && FrontCoded == 0) {
    std::string_view Id, Body;
    uint64_t Len = 0;
    ASSERT_TRUE(R.readBytes(1, Id) && R.readVarint(Len) &&
                R.readBytes(Len, Body));
    if (Id[0] == 7)
      FrontCoded = Body.size();
  }
  // The same table as v1's plain delta lists: (count, first, gaps) a set.
  std::string Plain;
  putVarint(Plain, D.PtsSets.size());
  for (const std::vector<uint32_t> &S : D.PtsSets) {
    putVarint(Plain, S.size());
    for (size_t I = 0; I < S.size(); ++I)
      putVarint(Plain, I == 0 ? S[0] : S[I] - S[I - 1]);
  }
  EXPECT_GT(FrontCoded, 0u);
  EXPECT_LT(FrontCoded, Plain.size())
      << "front-coded v2 must be strictly smaller than plain delta lists "
         "on overlapping sets (plain="
      << Plain.size() << "B, v2=" << FrontCoded << "B)";

  // And the smaller encoding still round-trips bit-exact content.
  std::string Err;
  auto D2 = decodeSnapshot(V2, Err);
  ASSERT_TRUE(D2) << Err;
  EXPECT_EQ(D.PtsSets, D2->PtsSets);
}

TEST(Snapshot, RejectsMalformedFrontCodedTable) {
  // A v2 PtsSets section whose first set claims a shared prefix with a
  // nonexistent predecessor must fail decode, not crash.
  std::string Payload;
  // Section id 7 (SecPtsSets) mirrored from the writer; 1 set, Shared=3.
  Payload.push_back(char(7));
  std::string Body;
  putVarint(Body, 1); // set count
  putVarint(Body, 3); // shared prefix of 3 — but there is no previous set
  putVarint(Body, 0); // empty suffix
  putVarint(Payload, Body.size());
  Payload += Body;
  std::string Err;
  EXPECT_EQ(decodeSnapshot(assemble(Payload), Err), nullptr);
  EXPECT_FALSE(Err.empty());
}
