//===--- Envs.cpp ---------------------------------------------------------===//

#include "Envs.h"

#include <cstring>

using namespace perfbench;
using namespace sigc;

EnvOutputId DigestEnvironment::resolveOutput(std::string_view Name,
                                             TypeKind Type) {
  EnvOutputId Id = RandomEnvironment::resolveOutput(Name, Type);
  if (Id >= NameHash.size())
    NameHash.resize(Id + 1);
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Name)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  NameHash[Id] = H;
  return Id;
}

void DigestEnvironment::writeOutput(EnvOutputId Output, unsigned Instant,
                                    const Value &V) {
  uint64_t Bits = 0;
  switch (V.Kind) {
  case TypeKind::Integer:
    Bits = static_cast<uint64_t>(V.Int);
    break;
  case TypeKind::Real:
    std::memcpy(&Bits, &V.Real, sizeof(Bits));
    break;
  default:
    Bits = V.Bool;
    break;
  }
  uint64_t Key = NameHash[Output] ^ (uint64_t(Instant) << 32 | uint64_t(V.Kind));
  Digest += mixSeed(Key, Bits);
  ++Events;
}
