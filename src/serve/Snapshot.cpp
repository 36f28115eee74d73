//===-- serve/Snapshot.cpp - Persistent analysis snapshots -------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Snapshot.h"

#include "obs/Trace.h"
#include "support/Hashing.h"
#include "support/Interner.h"
#include "support/Varint.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace mahjong;
using namespace mahjong::serve;

namespace {

constexpr char Magic[6] = {'M', 'J', 'S', 'N', 'A', 'P'};

// Section ids. New sections may be added at any id without a version
// bump; readers skip ids they do not know.
enum SectionId : uint8_t {
  SecMeta = 1,
  SecTypes = 2,
  SecFields = 3,
  SecMethods = 4,
  SecVars = 5,
  SecObjs = 6,
  SecPtsSets = 7,
  SecCallGraph = 8,
  SecCasts = 9,
};

void putFixed32(std::string &Buf, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putFixed64(std::string &Buf, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

bool getFixed32(std::string_view Data, size_t &Pos, uint32_t &V) {
  if (Data.size() - Pos < 4)
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(Data[Pos++])) << (8 * I);
  return true;
}

bool getFixed64(std::string_view Data, size_t &Pos, uint64_t &V) {
  if (Data.size() - Pos < 8)
    return false;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(Data[Pos++])) << (8 * I);
  return true;
}

/// Appends a sorted id list as (count, first, gaps).
void putDeltaList(std::string &Buf, const std::vector<uint32_t> &Ids) {
  putVarint(Buf, Ids.size());
  uint32_t Prev = 0;
  for (size_t I = 0; I < Ids.size(); ++I) {
    putVarint(Buf, I == 0 ? Ids[0] : Ids[I] - Prev);
    Prev = Ids[I];
  }
}

bool readDeltaList(ByteReader &R, std::vector<uint32_t> &Out,
                   uint32_t Bound) {
  uint64_t N;
  if (!R.readVarint(N) || N > Bound || N > R.remaining())
    return false;
  Out.clear();
  Out.reserve(N);
  uint64_t Prev = 0;
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t D;
    if (!R.readVarint(D))
      return false;
    uint64_t V = I == 0 ? D : Prev + D;
    if (V >= Bound || (I > 0 && D == 0))
      return false; // out of range or not strictly ascending
    Out.push_back(static_cast<uint32_t>(V));
    Prev = V;
  }
  return true;
}

/// v2 dedup-table encoding: each set is front-coded against its
/// predecessor as (sharedPrefixLen, suffixLen, suffix gaps). The suffix
/// gaps continue the delta chain from the last shared element, so a set
/// that extends its neighbor by one object costs three varints total.
/// Presumes (but does not require) the lexicographically sorted table
/// buildSnapshot produces — correctness never depends on the order, only
/// the compression ratio does.
void putFrontCodedSets(std::string &Body,
                       const std::vector<std::vector<uint32_t>> &Sets) {
  putVarint(Body, Sets.size());
  const std::vector<uint32_t> *Prev = nullptr;
  for (const std::vector<uint32_t> &S : Sets) {
    size_t Shared = 0;
    if (Prev) {
      size_t Limit = std::min(Prev->size(), S.size());
      while (Shared < Limit && (*Prev)[Shared] == S[Shared])
        ++Shared;
    }
    putVarint(Body, Shared);
    putVarint(Body, S.size() - Shared);
    uint32_t PrevVal = Shared ? S[Shared - 1] : 0;
    for (size_t I = Shared; I < S.size(); ++I) {
      putVarint(Body, S[I] - PrevVal);
      PrevVal = S[I];
    }
    Prev = &S;
  }
}

void putSection(std::string &Payload, SectionId Id, const std::string &Body) {
  Payload.push_back(static_cast<char>(Id));
  putVarint(Payload, Body.size());
  Payload += Body;
}

/// Fills every type's Ancestors with the types it is a subtype of, the
/// closure ir::ClassHierarchy::isSubtype defines, by walking the
/// hierarchy instead of testing all pairs:
///
///  - the null type is below every type;
///  - a class is below itself, its superclass chain and Object;
///  - an array E[] is below Object and every A[] with A an ancestor of E
///    (covariance), so element types are resolved before their arrays.
void buildAncestors(const ir::Program &P,
                    std::vector<SnapshotData::Type> &Types) {
  uint32_t N = P.numTypes();
  TypeId Object = P.objectType();
  // Array types by element type, and each type's array nesting depth.
  std::vector<std::vector<uint32_t>> ArraysOf(N);
  std::vector<uint32_t> Nesting(N, 0);
  for (uint32_t T = 0; T < N; ++T) {
    if (P.type(TypeId(T)).Kind != ir::TypeKind::Array)
      continue;
    ArraysOf[P.type(TypeId(T)).Elem.idx()].push_back(T);
    for (TypeId E = TypeId(T); P.type(E).Kind == ir::TypeKind::Array;
         E = P.type(E).Elem)
      ++Nesting[T];
  }
  std::vector<uint32_t> Order(N);
  for (uint32_t T = 0; T < N; ++T)
    Order[T] = T;
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Nesting[A] < Nesting[B];
  });
  for (uint32_t T : Order) {
    const ir::TypeInfo &TI = P.type(TypeId(T));
    std::vector<uint32_t> &A = Types[T].Ancestors;
    if (TI.Kind == ir::TypeKind::Null) {
      A.resize(N);
      for (uint32_t U = 0; U < N; ++U)
        A[U] = U;
      continue;
    }
    A.push_back(T);
    if (Object.isValid())
      A.push_back(Object.idx());
    if (TI.Kind == ir::TypeKind::Array) {
      for (uint32_t E : Types[TI.Elem.idx()].Ancestors)
        A.insert(A.end(), ArraysOf[E].begin(), ArraysOf[E].end());
    } else {
      for (TypeId U = TI.Super; U.isValid(); U = P.type(U).Super)
        if (P.type(U).Kind == ir::TypeKind::Class)
          A.push_back(U.idx());
    }
    std::sort(A.begin(), A.end());
    A.erase(std::unique(A.begin(), A.end()), A.end());
  }
}

} // namespace

bool SnapshotData::isSubtype(uint32_t Sub, uint32_t Super) const {
  const std::vector<uint32_t> &A = Types[Sub].Ancestors;
  return std::binary_search(A.begin(), A.end(), Super);
}

std::string SnapshotData::describeObj(uint32_t O) const {
  const Obj &Ob = Objs[O];
  std::string S = "o" + std::to_string(O) + "<" + Types[Ob.Type].Name + ">";
  if (Ob.Method != NoMethod)
    S += "@" + Methods[Ob.Method].Signature;
  return S;
}

SnapshotData mahjong::serve::buildSnapshot(const pta::PTAResult &R) {
  const ir::Program &P = R.P;
  SnapshotData D;
  D.AnalysisName = R.AnalysisName;
  D.HeapName = R.HeapName;

  D.Types.resize(P.numTypes());
  for (uint32_t T = 0; T < P.numTypes(); ++T) {
    SnapshotData::Type &Ty = D.Types[T];
    Ty.Name = P.type(TypeId(T)).Name;
    Ty.Kind = static_cast<uint8_t>(P.type(TypeId(T)).Kind);
  }
  buildAncestors(P, D.Types);

  D.Fields.resize(P.numFields());
  for (uint32_t F = 0; F < P.numFields(); ++F) {
    D.Fields[F].Name = P.field(FieldId(F)).Name;
    D.Fields[F].Declaring = P.field(FieldId(F)).Declaring.idx();
  }

  D.Methods.resize(P.numMethods());
  for (uint32_t M = 0; M < P.numMethods(); ++M) {
    D.Methods[M].Signature = P.method(MethodId(M)).Signature;
    D.Methods[M].Reachable = R.ReachableMethod[M];
  }

  D.Objs.resize(P.numObjs());
  for (uint32_t O = 0; O < P.numObjs(); ++O) {
    D.Objs[O].Type = P.obj(ObjId(O)).Type.idx();
    MethodId M = P.obj(ObjId(O)).Method;
    D.Objs[O].Method = M.isValid() ? M.idx() : SnapshotData::NoMethod;
  }

  // Dedup the CI points-to sets: each distinct set is stored once and
  // referenced by index. Index 0 is pinned to the empty set.
  struct PtsSetTag {};
  Interner<Id<PtsSetTag>, std::vector<uint32_t>, VectorHash> Sets;
  Sets.intern({});
  D.Vars.resize(P.numVars());
  R.forEachCIVarPts([&](VarId V, const pta::PTAResult::ObjList &Objs) {
    SnapshotData::Var &Var = D.Vars[V.idx()];
    Var.Name = P.var(V).Name;
    Var.Method = P.var(V).Method.idx();
    Var.PtsSet = Sets.intern(Objs).idx();
  });
  // Re-order the table lexicographically: adjacent sets then share the
  // longest possible prefixes, which is what the v2 front-coded encoding
  // compresses. The empty set is the lexicographic minimum, so it lands
  // on index 0 by construction (the format's pinned invariant).
  std::vector<uint32_t> Perm(Sets.size());
  for (uint32_t I = 0; I < Sets.size(); ++I)
    Perm[I] = I;
  std::sort(Perm.begin(), Perm.end(), [&Sets](uint32_t A, uint32_t B) {
    return Sets.get(Id<PtsSetTag>(A)) < Sets.get(Id<PtsSetTag>(B));
  });
  std::vector<uint32_t> NewIndex(Sets.size());
  D.PtsSets.resize(Sets.size());
  for (uint32_t New = 0; New < Sets.size(); ++New) {
    NewIndex[Perm[New]] = New;
    D.PtsSets[New] = Sets.get(Id<PtsSetTag>(Perm[New]));
  }
  for (SnapshotData::Var &V : D.Vars)
    V.PtsSet = NewIndex[V.PtsSet];

  D.Sites.resize(P.numCallSites());
  for (uint32_t S = 0; S < P.numCallSites(); ++S) {
    SnapshotData::Site &Site = D.Sites[S];
    Site.Kind = static_cast<uint8_t>(P.callSite(CallSiteId(S)).Kind);
    Site.Enclosing = P.callSite(CallSiteId(S)).Enclosing.idx();
    for (MethodId Callee : R.CG.calleesOf(CallSiteId(S)))
      Site.Callees.push_back(Callee.idx());
    std::sort(Site.Callees.begin(), Site.Callees.end());
  }

  D.Casts.resize(P.numCastSites());
  for (uint32_t C = 0; C < P.numCastSites(); ++C) {
    D.Casts[C].From = P.castSite(C).From.idx();
    D.Casts[C].Target = P.castSite(C).Target.idx();
    D.Casts[C].Enclosing = P.castSite(C).Enclosing.idx();
  }
  return D;
}

std::string mahjong::serve::encodeSnapshot(const SnapshotData &D) {
  std::string Payload, Body;

  Body.clear();
  putString(Body, D.AnalysisName);
  putString(Body, D.HeapName);
  putSection(Payload, SecMeta, Body);

  Body.clear();
  putVarint(Body, D.Types.size());
  for (const SnapshotData::Type &T : D.Types) {
    putString(Body, T.Name);
    Body.push_back(static_cast<char>(T.Kind));
    putDeltaList(Body, T.Ancestors);
  }
  putSection(Payload, SecTypes, Body);

  Body.clear();
  putVarint(Body, D.Fields.size());
  for (const SnapshotData::Field &F : D.Fields) {
    putString(Body, F.Name);
    putVarint(Body, F.Declaring);
  }
  putSection(Payload, SecFields, Body);

  Body.clear();
  putVarint(Body, D.Methods.size());
  for (const SnapshotData::Method &M : D.Methods) {
    putString(Body, M.Signature);
    Body.push_back(M.Reachable ? 1 : 0);
  }
  putSection(Payload, SecMethods, Body);

  Body.clear();
  putVarint(Body, D.Vars.size());
  for (const SnapshotData::Var &V : D.Vars) {
    putString(Body, V.Name);
    putVarint(Body, V.Method);
    putVarint(Body, V.PtsSet);
  }
  putSection(Payload, SecVars, Body);

  Body.clear();
  putVarint(Body, D.Objs.size());
  for (const SnapshotData::Obj &O : D.Objs) {
    putVarint(Body, O.Type);
    // NoMethod is stored as 0, valid method M as M+1, keeping the common
    // case a short varint.
    putVarint(Body, O.Method == SnapshotData::NoMethod ? 0 : O.Method + 1);
  }
  putSection(Payload, SecObjs, Body);

  Body.clear();
  putFrontCodedSets(Body, D.PtsSets);
  putSection(Payload, SecPtsSets, Body);

  Body.clear();
  putVarint(Body, D.Sites.size());
  for (const SnapshotData::Site &S : D.Sites) {
    Body.push_back(static_cast<char>(S.Kind));
    putVarint(Body, S.Enclosing);
    putDeltaList(Body, S.Callees);
  }
  putSection(Payload, SecCallGraph, Body);

  Body.clear();
  putVarint(Body, D.Casts.size());
  for (const SnapshotData::Cast &C : D.Casts) {
    putVarint(Body, C.From);
    putVarint(Body, C.Target);
    putVarint(Body, C.Enclosing);
  }
  putSection(Payload, SecCasts, Body);

  std::string Out;
  Out.append(Magic, sizeof(Magic));
  putFixed32(Out, SnapshotVersion);
  putFixed64(Out, fnv1a64(Payload));
  putFixed64(Out, Payload.size());
  Out += Payload;
  return Out;
}

uint64_t mahjong::serve::snapshotDigest(const SnapshotData &D) {
  // Digesting the canonical current-version encoding makes the digest a
  // function of the decoded content alone: a v1 file and its v2
  // re-encoding digest identically, while any answer-visible difference
  // (a set, an edge, a name) changes it.
  return fnv1a64(encodeSnapshot(D));
}

namespace {

/// Reads a table's entry count, rejecting counts that cannot possibly fit
/// in the section's remaining bytes (every entry encodes to >= 1 byte).
/// This bounds the table resize *before* any allocation, so a tiny file
/// claiming 2^40 entries fails cleanly instead of raising bad_alloc.
bool readCount(ByteReader &R, uint64_t &N) {
  return R.readVarint(N) && N <= R.remaining();
}

/// Per-section decoders. Each returns false on malformed bytes; range
/// checks that need other sections run after all sections are read.
bool decodeTypes(ByteReader &R, SnapshotData &D) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.Types.resize(N);
  for (SnapshotData::Type &T : D.Types) {
    std::string_view Kind;
    if (!R.readString(T.Name) || !R.readBytes(1, Kind))
      return false;
    T.Kind = static_cast<uint8_t>(Kind[0]);
    if (!readDeltaList(R, T.Ancestors, static_cast<uint32_t>(N)))
      return false;
  }
  return true;
}

bool decodeFields(ByteReader &R, SnapshotData &D) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.Fields.resize(N);
  for (SnapshotData::Field &F : D.Fields)
    if (!R.readString(F.Name) || !R.readU32(F.Declaring))
      return false;
  return true;
}

bool decodeMethods(ByteReader &R, SnapshotData &D) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.Methods.resize(N);
  for (SnapshotData::Method &M : D.Methods) {
    std::string_view Reach;
    if (!R.readString(M.Signature) || !R.readBytes(1, Reach))
      return false;
    M.Reachable = Reach[0] != 0;
  }
  return true;
}

bool decodeVars(ByteReader &R, SnapshotData &D) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.Vars.resize(N);
  for (SnapshotData::Var &V : D.Vars)
    if (!R.readString(V.Name) || !R.readU32(V.Method) ||
        !R.readU32(V.PtsSet))
      return false;
  return true;
}

bool decodeObjs(ByteReader &R, SnapshotData &D) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.Objs.resize(N);
  for (SnapshotData::Obj &O : D.Objs) {
    uint32_t M;
    if (!R.readU32(O.Type) || !R.readU32(M))
      return false;
    O.Method = M == 0 ? SnapshotData::NoMethod : M - 1;
  }
  return true;
}

bool decodePtsSets(ByteReader &R, SnapshotData &D, uint32_t NumObjs) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.PtsSets.resize(N);
  for (std::vector<uint32_t> &S : D.PtsSets)
    if (!readDeltaList(R, S, NumObjs))
      return false;
  return true;
}

/// v2 counterpart of decodePtsSets: reconstructs each front-coded set
/// from its predecessor's prefix plus the delta-coded suffix, enforcing
/// the same invariants readDeltaList does (strictly ascending, in range)
/// plus the front-coding ones (shared prefix no longer than the
/// predecessor; only the very first element of an unshared set may be 0).
bool decodePtsSetsV2(ByteReader &R, SnapshotData &D, uint32_t NumObjs) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.PtsSets.resize(N);
  const std::vector<uint32_t> *Prev = nullptr;
  for (std::vector<uint32_t> &S : D.PtsSets) {
    uint64_t Shared, SuffixN;
    if (!R.readVarint(Shared) || !R.readVarint(SuffixN))
      return false;
    if (Shared > (Prev ? Prev->size() : 0))
      return false; // prefix reaches past the predecessor
    if (SuffixN > R.remaining())
      return false; // every suffix element encodes to >= 1 byte
    S.reserve(Shared + SuffixN);
    if (Shared)
      S.assign(Prev->begin(), Prev->begin() + Shared);
    uint64_t PrevVal = Shared ? S.back() : 0;
    for (uint64_t I = 0; I < SuffixN; ++I) {
      uint64_t Gap;
      if (!R.readVarint(Gap))
        return false;
      if (Gap == 0 && !(I == 0 && Shared == 0))
        return false; // not strictly ascending
      uint64_t V = PrevVal + Gap;
      if (V >= NumObjs)
        return false;
      S.push_back(static_cast<uint32_t>(V));
      PrevVal = V;
    }
    Prev = &S;
  }
  return true;
}

bool decodeSites(ByteReader &R, SnapshotData &D, uint32_t NumMethods) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.Sites.resize(N);
  for (SnapshotData::Site &S : D.Sites) {
    std::string_view Kind;
    if (!R.readBytes(1, Kind) || !R.readU32(S.Enclosing) ||
        !readDeltaList(R, S.Callees, NumMethods))
      return false;
    S.Kind = static_cast<uint8_t>(Kind[0]);
  }
  return true;
}

bool decodeCasts(ByteReader &R, SnapshotData &D) {
  uint64_t N;
  if (!readCount(R, N))
    return false;
  D.Casts.resize(N);
  for (SnapshotData::Cast &C : D.Casts)
    if (!R.readU32(C.From) || !R.readU32(C.Target) ||
        !R.readU32(C.Enclosing))
      return false;
  return true;
}

/// Cross-section reference validation, run once everything is decoded.
/// Deliberately re-checks the id lists that decoding already bounded:
/// decode-time bounds only see the tables decoded *before* the list, so
/// this pass is the actual guarantee that no reference dangles.
const char *validateRefs(const SnapshotData &D) {
  for (const SnapshotData::Type &T : D.Types)
    for (uint32_t A : T.Ancestors)
      if (A >= D.Types.size())
        return "type ancestor out of range";
  for (const SnapshotData::Field &F : D.Fields)
    if (F.Declaring >= D.Types.size())
      return "field declaring-type out of range";
  for (const SnapshotData::Var &V : D.Vars)
    if (V.Method >= D.Methods.size() || V.PtsSet >= D.PtsSets.size())
      return "variable reference out of range";
  for (const SnapshotData::Obj &O : D.Objs)
    if (O.Type >= D.Types.size() ||
        (O.Method != SnapshotData::NoMethod && O.Method >= D.Methods.size()))
      return "object reference out of range";
  for (const std::vector<uint32_t> &S : D.PtsSets)
    for (uint32_t O : S)
      if (O >= D.Objs.size())
        return "points-to set object out of range";
  for (const SnapshotData::Site &S : D.Sites) {
    if (S.Enclosing >= D.Methods.size())
      return "call-site enclosing method out of range";
    for (uint32_t Callee : S.Callees)
      if (Callee >= D.Methods.size())
        return "call-site callee out of range";
  }
  for (const SnapshotData::Cast &C : D.Casts)
    if (C.From >= D.Vars.size() || C.Target >= D.Types.size() ||
        C.Enclosing >= D.Methods.size())
      return "cast-site reference out of range";
  if (D.PtsSets.empty() || !D.PtsSets[0].empty())
    return "points-to set 0 must be the empty set";
  return nullptr;
}

} // namespace

std::unique_ptr<SnapshotData>
mahjong::serve::decodeSnapshot(std::string_view Bytes, std::string &Err) {
  auto Fail = [&Err](const std::string &Msg) {
    Err = "invalid snapshot: " + Msg;
    return nullptr;
  };
  if (Bytes.size() < sizeof(Magic) ||
      Bytes.compare(0, sizeof(Magic), Magic, sizeof(Magic)) != 0)
    return Fail("bad magic (not a .mjsnap file)");
  size_t Pos = sizeof(Magic);
  uint32_t Version;
  uint64_t Checksum, PayloadSize;
  if (!getFixed32(Bytes, Pos, Version) || !getFixed64(Bytes, Pos, Checksum) ||
      !getFixed64(Bytes, Pos, PayloadSize))
    return Fail("truncated header");
  if (Version < SnapshotMinSupported || Version > SnapshotVersion)
    return Fail("format version " + std::to_string(Version) +
                " unsupported (this build reads " +
                std::to_string(SnapshotMinSupported) + ".." +
                std::to_string(SnapshotVersion) + ")");
  if (PayloadSize != Bytes.size() - Pos)
    return Fail("payload size mismatch (truncated or trailing bytes)");
  std::string_view Payload = Bytes.substr(Pos);
  if (fnv1a64(Payload) != Checksum)
    return Fail("payload checksum mismatch (corrupted file)");

  auto D = std::make_unique<SnapshotData>();
  D->FormatVersion = Version;
  bool Seen[10] = {};
  ByteReader Sections(Payload);
  while (!Sections.atEnd()) {
    std::string_view SecId, Body;
    uint64_t Len;
    if (!Sections.readBytes(1, SecId) || !Sections.readVarint(Len) ||
        !Sections.readBytes(Len, Body))
      return Fail("truncated section table");
    uint8_t Id = static_cast<uint8_t>(SecId[0]);
    // A repeated section would silently overwrite a table other sections
    // were already bound-checked against; reject it outright.
    if (Id < sizeof(Seen) && Seen[Id])
      return Fail("duplicate section " + std::to_string(Id));
    ByteReader R(Body);
    bool Ok = true;
    switch (Id) {
    case SecMeta:
      Ok = R.readString(D->AnalysisName) && R.readString(D->HeapName);
      break;
    case SecTypes:
      Ok = decodeTypes(R, *D);
      break;
    case SecFields:
      Ok = decodeFields(R, *D);
      break;
    case SecMethods:
      Ok = decodeMethods(R, *D);
      break;
    case SecVars:
      Ok = decodeVars(R, *D);
      break;
    case SecObjs:
      Ok = decodeObjs(R, *D);
      break;
    case SecPtsSets:
      Ok = Version >= 2
               ? decodePtsSetsV2(R, *D, static_cast<uint32_t>(D->Objs.size()))
               : decodePtsSets(R, *D, static_cast<uint32_t>(D->Objs.size()));
      break;
    case SecCallGraph:
      Ok = decodeSites(R, *D, static_cast<uint32_t>(D->Methods.size()));
      break;
    case SecCasts:
      Ok = decodeCasts(R, *D);
      break;
    default:
      continue; // unknown section: forward-compatible skip
    }
    if (!Ok)
      return Fail("malformed section " + std::to_string(Id));
    if (Id < sizeof(Seen))
      Seen[Id] = true;
  }
  for (uint8_t Id : {SecMeta, SecTypes, SecFields, SecMethods, SecVars,
                     SecObjs, SecPtsSets, SecCallGraph, SecCasts})
    if (!Seen[Id])
      return Fail("missing section " + std::to_string(Id));
  // Sections reference each other by index; Objs/PtsSets/CallGraph are
  // bound-checked during decoding against whatever was decoded *first*,
  // so re-validate everything now that all tables exist.
  if (const char *Msg = validateRefs(*D))
    return Fail(Msg);
  return D;
}

bool mahjong::serve::saveSnapshot(const pta::PTAResult &R,
                                  const std::string &Path,
                                  std::string &Err) {
  obs::ScopedSpan Span("snapshot-encode");
  std::string Bytes = encodeSnapshot(buildSnapshot(R));
  Span.arg("bytes", Bytes.size());
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out || !Out.write(Bytes.data(), Bytes.size())) {
    Err = "cannot write '" + Path + "'";
    return false;
  }
  return true;
}

std::unique_ptr<SnapshotData>
mahjong::serve::loadSnapshot(const std::string &Path, std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open '" + Path + "'";
    return nullptr;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  obs::ScopedSpan Span("snapshot-decode");
  return decodeSnapshot(Buf.str(), Err);
}
