// Wire-codec symmetry analysis behind vlora_lint --codec-symmetry.
//
// The framed binary protocol in src/net writes and reads messages through
// WireWriter / WireReader primitive calls (U8, U16, ..., Varint, Str,
// F32Array). Every encoder must emit exactly the primitive sequence its
// decoder consumes; a field added on one side only, or two fields swapped,
// silently skews the wire format. This pass extracts the ordered primitive
// sequence of every codec function in the given files (recursively inlining
// helper calls like ReadTensor or AppendModelConfig at their call site),
// pairs encoders with decoders, and diffs the sequences:
//
//   codec-asymmetry   a paired encoder/decoder whose primitive sequences
//                     diverge (reported with the first differing position)
//   codec-unpaired    a codec function with no counterpart: an AppendX /
//                     EncodeX with no ParseX / DecodeX or vice versa
//
// Pairing is by naming convention — `C::AppendTo` pairs with `C::Parse`,
// `AppendX` with `ParseX`, `EncodeX` with `DecodeX`, `WriteX` with `ReadX` —
// plus two comment directives for asymmetric names:
//
//   // vlora-codec: pair(EncodeFrame, DecodeEnvelope)
//   // vlora-codec: wrapper(EncodeXFrame)
//
// `pair` forces a comparison between two differently named functions;
// `wrapper` marks a function that composes other codecs (its sequence is
// their concatenation) and is excluded from pairing. Functions that are only
// called as helpers from other codecs are exempt from the unpaired check —
// their sequences are checked where they are inlined.
//
// Like every vlora_lint file-graph pass this is a heuristic over
// comment-stripped source built on tools/callgraph.h, not a real C++ parse:
// loops contribute their body sequence once, and a line mixing primitive
// calls with helper calls is ordered primitives-first.

#ifndef VLORA_TOOLS_CODEC_SYMMETRY_H_
#define VLORA_TOOLS_CODEC_SYMMETRY_H_

#include <string>
#include <vector>

#include "tools/callgraph.h"
#include "tools/lint_rules.h"

namespace vlora {
namespace lint {

// Runs the codec-symmetry analysis over the given files.
std::vector<Finding> CheckCodecSymmetry(const std::vector<SourceFile>& files);

// Filesystem wrapper: loads each path (a file or a directory of sources) and
// runs CheckCodecSymmetry.
std::vector<Finding> CheckCodecSymmetryOverTree(const std::vector<std::string>& paths);

}  // namespace lint
}  // namespace vlora

#endif  // VLORA_TOOLS_CODEC_SYMMETRY_H_
