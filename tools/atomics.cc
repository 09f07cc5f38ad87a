#include "tools/atomics.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace vlora {
namespace lint {
namespace {

const char kUnregistered[] = "atomic-unregistered";
const char kStaleEntry[] = "atomic-stale-entry";
const char kBadProtocol[] = "atomic-bad-protocol";
const char kMismatch[] = "atomic-protocol-mismatch";
const char kRelaxedSync[] = "atomic-relaxed-sync";
const char kUnpairedRelease[] = "atomic-unpaired-release";
const char kUnpairedAcquire[] = "atomic-unpaired-acquire";
const char kSeqCstHot[] = "atomic-seqcst-hot";
const char kMixedAccess[] = "atomic-mixed-access";
const char kIoError[] = "io-error";

const char kCounterProto[] = "counter";
const char kFlagProto[] = "flag";
const char kPublishedProto[] = "published-value";
const char kSeqlockProto[] = "epoch-seqlock";
const char kInitOnceProto[] = "init-once";

bool KnownProtocol(const std::string& name) {
  return name == kCounterProto || name == kFlagProto || name == kPublishedProto ||
         name == kSeqlockProto || name == kInitOnceProto;
}

bool Synchronizing(const std::string& proto) {
  return proto != kCounterProto;
}

enum class Order { kDefault, kRelaxed, kConsume, kAcquire, kRelease, kAcqRel, kSeqCst };

const char* OrderName(Order order) {
  switch (order) {
    case Order::kDefault:
      return "default (seq_cst)";
    case Order::kRelaxed:
      return "relaxed";
    case Order::kConsume:
      return "consume";
    case Order::kAcquire:
      return "acquire";
    case Order::kRelease:
      return "release";
    case Order::kAcqRel:
      return "acq_rel";
    case Order::kSeqCst:
      return "seq_cst";
  }
  return "?";
}

Order OrderFromToken(const std::string& token) {
  if (token == "relaxed") {
    return Order::kRelaxed;
  }
  if (token == "consume") {
    return Order::kConsume;
  }
  if (token == "acquire") {
    return Order::kAcquire;
  }
  if (token == "release") {
    return Order::kRelease;
  }
  if (token == "acq_rel") {
    return Order::kAcqRel;
  }
  if (token == "seq_cst") {
    return Order::kSeqCst;
  }
  return Order::kDefault;
}

enum class OpKind { kLoad, kStore, kRmw, kCas };

OpKind KindFromMethod(const std::string& method) {
  if (method == "load") {
    return OpKind::kLoad;
  }
  if (method == "store") {
    return OpKind::kStore;
  }
  if (method.rfind("compare_exchange", 0) == 0) {
    return OpKind::kCas;
  }
  return OpKind::kRmw;
}

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLoad:
      return "load";
    case OpKind::kStore:
      return "store";
    case OpKind::kRmw:
      return "RMW";
    case OpKind::kCas:
      return "compare-exchange";
  }
  return "?";
}

struct AtomicDecl {
  std::string key;
  std::string name;
  std::string file;
  int line = 0;
  std::string raw;
};

struct AtomicOp {
  std::vector<std::string> keys;  // resolved registry keys (usually one)
  std::string name;
  OpKind kind = OpKind::kLoad;
  Order order = Order::kDefault;  // success order for compare-exchange
  std::string fn;                 // enclosing function, "" when unknown
  std::string file;
  int line = 0;
  std::string raw;
};

struct PlainUse {
  std::string key;
  std::string name;
  std::string fn;
  std::string file;
  int line = 0;
  std::string raw;
};

struct ScanResult {
  std::vector<AtomicDecl> decls;
  std::vector<AtomicOp> ops;
  std::vector<PlainUse> plain;
};

const std::regex& AtomicDeclRe() {
  // `std::atomic<T> name` with one level of template nesting in T. Pointer
  // and reference declarators do not match, so parameters stay invisible.
  static const std::regex re(
      "\\bstd\\s*::\\s*atomic\\s*<[^<>;{}]*(?:<[^<>]*>)?[^<>;{}]*>\\s+([A-Za-z_]\\w*)");
  return re;
}

const std::regex& OpRe() {
  static const std::regex re(
      "([A-Za-z_]\\w*)\\s*(?:\\.|->)\\s*(load|store|exchange|fetch_add|fetch_sub|"
      "fetch_and|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
      "\\s*\\(");
  return re;
}

const std::regex& ClassHeadRe() {
  static const std::regex re("\\b(class|struct)\\s+([A-Za-z_]\\w*)");
  return re;
}

const std::regex& DefStartRe() {
  static const std::regex re("\\b([A-Z]\\w*)::(~?\\w+)\\s*\\(");
  return re;
}

const std::regex& MemOrderTokenRe() {
  static const std::regex re("\\bmemory_order_(relaxed|consume|acquire|release|acq_rel|seq_cst)\\b");
  return re;
}

bool IsIdentChar(char c) {
  return isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// memory_order tokens appearing at paren depth 1 of the call whose argument
// list starts at code_lines[line_idx][col] (just after the open paren).
// Nested calls are blanked so their orders stay theirs.
std::vector<Order> CallOrders(const std::vector<std::string>& code_lines, size_t line_idx,
                              size_t col) {
  std::string depth1;
  int depth = 1;
  size_t line = line_idx;
  int spanned = 0;
  bool closed = false;
  while (line < code_lines.size() && spanned < 8 && !closed) {
    const std::string& text = code_lines[line];
    for (; col < text.size(); ++col) {
      const char c = text[col];
      if (c == '(') {
        ++depth;
        depth1.push_back(' ');
        continue;
      }
      if (c == ')') {
        --depth;
        if (depth == 0) {
          closed = true;
          break;
        }
        depth1.push_back(' ');
        continue;
      }
      depth1.push_back(depth == 1 ? c : ' ');
    }
    ++line;
    col = 0;
    ++spanned;
  }
  std::vector<Order> orders;
  for (std::sregex_iterator it(depth1.begin(), depth1.end(), MemOrderTokenRe()), end; it != end;
       ++it) {
    orders.push_back(OrderFromToken((*it)[1].str()));
  }
  return orders;
}

// ---------------------------------------------------------------------------
// The declaration/operation scanner. Unlike BodyWalker it also enters
// in-class inline method bodies (headers hold most of this repo's atomic
// accessors), tracks the innermost class for member attribution, and records
// function-local declarations under "Function::name" keys.
// ---------------------------------------------------------------------------

class AtomicScanner {
 public:
  explicit AtomicScanner(const std::map<std::string, AtomicProtocolSpec>* registry)
      : registry_(registry) {
    for (const auto& [key, spec] : *registry) {
      (void)spec;
      const size_t pos = key.rfind("::");
      const std::string leaf = pos == std::string::npos ? key : key.substr(pos + 2);
      leaves_[leaf].push_back(key);
    }
  }

  void ScanFile(const SourceFile& file, ScanResult* out) {
    out_ = out;
    path_ = file.path;
    raw_lines_ = SplitLines(file.content);
    code_lines_.clear();
    code_lines_.reserve(raw_lines_.size());
    bool in_block = false;
    for (const std::string& raw : raw_lines_) {
      code_lines_.push_back(BlankStrings(StripComments(raw, &in_block)));
    }
    depth_ = 0;
    classes_.clear();
    in_func_ = false;
    collecting_ = false;
    sig_.clear();
    fn_qual_.clear();
    fn_class_.clear();
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      ProcessLine(i);
    }
  }

 private:
  struct ClassFrame {
    std::string name;
    int depth = 0;
  };

  void ProcessLine(size_t i) {
    const std::string& text = code_lines_[i];
    size_t body_from = 0;
    bool scan_body = in_func_;

    if (!in_func_) {
      // Declarations are scanned on every non-body line, independent of the
      // signature buffering below (an initializer like `{static_cast<int>(x)}`
      // also looks like a signature candidate until its ';').
      ScanDecls(text, i);
      if (collecting_) {
        sig_ += " " + text;
        EvaluateSig(text, &body_from, &scan_body);
      } else if (TryClassHead(text)) {
        // frame pushed; nothing else on this line is scanned
      } else if (SigCandidate(text)) {
        collecting_ = true;
        sig_ = text;
        EvaluateSig(text, &body_from, &scan_body);
      }
    }

    if (scan_body && in_func_) {
      ScanBody(text, body_from, i);
    }

    depth_ += CountChar(text, '{') - CountChar(text, '}');
    if (in_func_ && depth_ <= fn_close_depth_) {
      in_func_ = false;
      fn_qual_.clear();
      fn_class_.clear();
    }
    while (!classes_.empty() && depth_ <= classes_.back().depth) {
      classes_.pop_back();
    }
  }

  bool TryClassHead(const std::string& text) {
    if (text.find('{') == std::string::npos) {
      return false;
    }
    if (text.find("enum") != std::string::npos) {
      return false;  // `enum class` opens an enumerator list, not a scope
    }
    std::string name;
    for (std::sregex_iterator it(text.begin(), text.end(), ClassHeadRe()), end; it != end; ++it) {
      name = (*it)[2].str();  // last match skips `template <class T>` params
    }
    if (name.empty()) {
      return false;
    }
    classes_.push_back({name, depth_});
    return true;
  }

  bool SigCandidate(const std::string& text) const {
    if (text.find('(') == std::string::npos) {
      return false;
    }
    const std::string trimmed = TrimText(text);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '}') {
      return false;
    }
    if (!classes_.empty()) {
      return true;  // the terminator discards member declarations
    }
    if (std::regex_search(text, DefStartRe())) {
      return true;
    }
    // Free-function heuristic: a definition starts at column 0.
    const char first = text[0];
    if (isalpha(static_cast<unsigned char>(first)) == 0 && first != '_') {
      return false;
    }
    if (trimmed.rfind("using", 0) == 0 || trimmed.rfind("typedef", 0) == 0 ||
        trimmed.rfind("namespace", 0) == 0 || trimmed.rfind("static_assert", 0) == 0 ||
        trimmed.rfind("return", 0) == 0 || trimmed.rfind("extern", 0) == 0) {
      return false;
    }
    return true;
  }

  // Decides whether the buffered signature is a declaration (discard), still
  // open (keep buffering), or a definition (enter the function). On entry,
  // *body_from is set to the column just after the body '{' on this line.
  void EvaluateSig(const std::string& text, size_t* body_from, bool* scan_body) {
    int paren_depth = 0;
    bool seen_paren = false;
    size_t body_idx = std::string::npos;
    for (size_t idx = 0; idx < sig_.size(); ++idx) {
      const char c = sig_[idx];
      if (c == '(') {
        ++paren_depth;
        seen_paren = true;
      } else if (c == ')') {
        --paren_depth;
      } else if (paren_depth == 0 && (c == ';' || (c == '=' && !seen_paren))) {
        collecting_ = false;
        sig_.clear();
        return;
      } else if (paren_depth == 0 && c == '{' && seen_paren) {
        body_idx = idx;
        break;
      }
    }
    if (body_idx == std::string::npos) {
      if (sig_.size() > 2000 || CountChar(sig_, '\n') > 12) {
        collecting_ = false;
        sig_.clear();
      }
      return;
    }
    collecting_ = false;
    std::string cls;
    std::string name;
    if (!ExtractName(&cls, &name)) {
      sig_.clear();
      return;
    }
    fn_class_ = cls;
    fn_qual_ = cls.empty() ? name : cls + "::" + name;
    in_func_ = true;
    // Column of the body '{' within the current line (the signature was
    // extended with " " + text, so the line is the buffer's tail).
    const size_t line_start = sig_.size() - text.size();
    const size_t col = body_idx >= line_start ? body_idx - line_start : 0;
    int at_brace = depth_;
    for (size_t k = 0; k < col && k < text.size(); ++k) {
      if (text[k] == '{') {
        ++at_brace;
      } else if (text[k] == '}') {
        --at_brace;
      }
    }
    fn_close_depth_ = at_brace;
    *body_from = col + 1;
    *scan_body = true;
    sig_.clear();
  }

  bool ExtractName(std::string* cls, std::string* name) const {
    std::smatch m;
    if (std::regex_search(sig_, m, DefStartRe())) {
      *cls = m[1].str();
      *name = m[2].str();
      return true;
    }
    const size_t paren = sig_.find('(');
    if (paren == std::string::npos) {
      return false;
    }
    size_t end = paren;
    while (end > 0 && isspace(static_cast<unsigned char>(sig_[end - 1])) != 0) {
      --end;
    }
    size_t begin = end;
    while (begin > 0 && (IsIdentChar(sig_[begin - 1]) || sig_[begin - 1] == '~')) {
      --begin;
    }
    if (begin >= end) {
      return false;
    }
    const std::string ident = sig_.substr(begin, end - begin);
    if (ident == "if" || ident == "for" || ident == "while" || ident == "switch" ||
        ident == "catch" || ident == "sizeof" || ident == "decltype") {
      return false;
    }
    *cls = classes_.empty() ? "" : classes_.back().name;
    *name = ident;
    return true;
  }

  // Declarations at class or namespace scope.
  void ScanDecls(const std::string& text, size_t i) {
    for (std::sregex_iterator it(text.begin(), text.end(), AtomicDeclRe()), end; it != end; ++it) {
      const std::string name = (*it)[1].str();
      const std::string key =
          classes_.empty() ? name : classes_.back().name + "::" + name;
      out_->decls.push_back({key, name, path_, static_cast<int>(i) + 1, raw_lines_[i]});
    }
  }

  void ScanBody(const std::string& text, size_t from, size_t i) {
    const std::string body = text.substr(std::min(from, text.size()));
    // Function-local declarations.
    for (std::sregex_iterator it(body.begin(), body.end(), AtomicDeclRe()), end; it != end; ++it) {
      const std::string name = (*it)[1].str();
      out_->decls.push_back(
          {fn_qual_ + "::" + name, name, path_, static_cast<int>(i) + 1, raw_lines_[i]});
    }
    // Operation sites.
    for (std::sregex_iterator it(body.begin(), body.end(), OpRe()), end; it != end; ++it) {
      const std::string name = (*it)[1].str();
      const std::vector<std::string> keys = ResolveKeys(name, /*allow_suffix=*/true);
      if (keys.empty()) {
        continue;
      }
      const std::string method = (*it)[2].str();
      const size_t open_col = from + static_cast<size_t>(it->position(0) + it->length(0));
      const std::vector<Order> orders = CallOrders(code_lines_, i, open_col);
      AtomicOp op;
      op.keys = keys;
      op.name = name;
      op.kind = KindFromMethod(method);
      op.order = orders.empty() ? Order::kDefault : orders[0];
      if (op.kind != OpKind::kCas && orders.size() > 1) {
        op.order = orders.back();
      }
      op.fn = fn_qual_;
      op.file = path_;
      op.line = static_cast<int>(i) + 1;
      op.raw = raw_lines_[i];
      out_->ops.push_back(op);
    }
    // Operator-form (plain) access to registered atomics. Only exact-context
    // resolution applies here: a local variable that happens to share a
    // registered member's name must stay silent.
    const bool decl_line = std::regex_search(body, AtomicDeclRe());
    for (const auto& [leaf, keys] : leaves_) {
      (void)keys;
      size_t pos = 0;
      while ((pos = body.find(leaf, pos)) != std::string::npos) {
        const size_t end = pos + leaf.size();
        const bool bounded_left =
            pos == 0 || (!IsIdentChar(body[pos - 1]) && body[pos - 1] != '.' &&
                         body[pos - 1] != '>' && body[pos - 1] != ':');
        const bool bounded_right = end >= body.size() || !IsIdentChar(body[end]);
        pos = end;
        if (!bounded_left || !bounded_right) {
          continue;
        }
        if (decl_line) {
          continue;  // the declaration itself is not an access
        }
        if (FollowedByMemberCall(body, end)) {
          continue;  // a .load()/.store() site, handled above
        }
        const std::vector<std::string> resolved = ResolveKeys(leaf, /*allow_suffix=*/false);
        if (resolved.empty()) {
          continue;
        }
        out_->plain.push_back(
            {resolved[0], leaf, fn_qual_, path_, static_cast<int>(i) + 1, raw_lines_[i]});
      }
    }
  }

  static bool FollowedByMemberCall(const std::string& body, size_t end) {
    size_t j = end;
    while (j < body.size() && isspace(static_cast<unsigned char>(body[j])) != 0) {
      ++j;
    }
    if (j < body.size() && body[j] == '.') {
      ++j;
    } else if (j + 1 < body.size() && body[j] == '-' && body[j + 1] == '>') {
      j += 2;
    } else {
      return false;
    }
    while (j < body.size() && isspace(static_cast<unsigned char>(body[j])) != 0) {
      ++j;
    }
    size_t k = j;
    while (k < body.size() && IsIdentChar(body[k])) {
      ++k;
    }
    // Any member access on a resolved atomic is API surface, not operator
    // form; the operation regex above checks the orders of the audited set.
    return k > j;
  }

  // Registry keys an identifier resolves to in the current context, tried in
  // order: function-local ("Fn::name"), the enclosing class's member
  // ("Class::name"), a namespace-scope global (bare name), and — for
  // operation sites only — the unique-or-fanned suffix match that covers
  // receiver-qualified access like `buffer->head.load(...)`.
  std::vector<std::string> ResolveKeys(const std::string& name, bool allow_suffix) const {
    const auto leaf_it = leaves_.find(name);
    if (leaf_it == leaves_.end()) {
      return {};
    }
    const std::vector<std::string>& keys = leaf_it->second;
    const auto has = [&keys](const std::string& key) {
      return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    if (in_func_ && has(fn_qual_ + "::" + name)) {
      return {fn_qual_ + "::" + name};
    }
    if (!fn_class_.empty() && has(fn_class_ + "::" + name)) {
      return {fn_class_ + "::" + name};
    }
    if (!classes_.empty() && has(classes_.back().name + "::" + name)) {
      return {classes_.back().name + "::" + name};
    }
    if (has(name)) {
      return {name};
    }
    if (!allow_suffix) {
      return {};
    }
    std::vector<std::string> suffix;
    for (const std::string& key : keys) {
      if (key.size() > name.size() + 2 &&
          key.compare(key.size() - name.size() - 2, 2, "::") == 0) {
        suffix.push_back(key);
      }
    }
    return suffix;
  }

  const std::map<std::string, AtomicProtocolSpec>* registry_;
  std::map<std::string, std::vector<std::string>> leaves_;

  ScanResult* out_ = nullptr;
  std::string path_;
  std::vector<std::string> raw_lines_;
  std::vector<std::string> code_lines_;
  int depth_ = 0;
  std::vector<ClassFrame> classes_;
  bool in_func_ = false;
  bool collecting_ = false;
  std::string sig_;
  std::string fn_qual_;
  std::string fn_class_;
  int fn_close_depth_ = 0;
};

// Call edges only; the scanner above owns operation attribution.
class EdgeClient : public BodyClient {
 public:
  void OnCall(const BodyWalker& walker, const std::string& callee, const std::string& raw,
              int line_no) override {
    (void)raw;
    (void)line_no;
    callees_[walker.fn_qual()].insert(callee);
  }

  const std::map<std::string, std::set<std::string>>& callees() const { return callees_; }

 private:
  std::map<std::string, std::set<std::string>> callees_;
};

std::string JoinChain(const std::vector<std::string>& chain) {
  std::string out;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) {
      out += " -> ";
    }
    out += chain[i];
  }
  return out;
}

std::string JoinList(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += items[i];
  }
  return out;
}

bool Contains(const std::vector<std::string>& items, const std::string& value) {
  return std::find(items.begin(), items.end(), value) != items.end();
}

bool ReleaseClass(Order order) {
  return order == Order::kRelease || order == Order::kAcqRel || order == Order::kSeqCst ||
         order == Order::kDefault;
}

bool AcquireClass(Order order) {
  return order == Order::kAcquire || order == Order::kAcqRel || order == Order::kConsume ||
         order == Order::kSeqCst || order == Order::kDefault;
}

// Per-operation protocol check. Returns findings (not yet suppression
// filtered) for one resolved key.
void CheckOp(const AtomicOp& op, const std::string& key, const AtomicProtocolSpec& spec,
             std::vector<Finding>* findings) {
  const bool dflt = op.order == Order::kDefault;
  const Order eff = dflt ? Order::kSeqCst : op.order;
  const bool rmw = op.kind == OpKind::kRmw || op.kind == OpKind::kCas;
  const std::string opname = std::string(KindName(op.kind)) + " on '" + key + "'";

  if (spec.protocol == kCounterProto) {
    if (dflt || eff != Order::kRelaxed) {
      findings->push_back(
          {kMismatch, op.file, op.line,
           opname + " uses " + OrderName(op.order) +
               "; the counter protocol never synchronizes — every operation must state "
               "std::memory_order_relaxed explicitly"});
    }
    return;
  }

  if (dflt) {
    findings->push_back({kMismatch, op.file, op.line,
                         opname + " uses the implicit seq_cst default; the '" + spec.protocol +
                             "' protocol synchronizes and each operation must declare which "
                             "side it is on (release store / acquire load)"});
    return;
  }

  if (spec.protocol == kSeqlockProto) {
    if (eff == Order::kSeqCst) {
      findings->push_back({kMismatch, op.file, op.line,
                           opname + " uses seq_cst; the epoch-seqlock idiom needs at most "
                                    "relaxed owner access, a release publish and an acquire "
                                    "collect"});
    } else if (rmw && eff == Order::kRelaxed) {
      findings->push_back({kRelaxedSync, op.file, op.line,
                           "relaxed " + opname +
                               ", which is declared as synchronizing (epoch-seqlock); a "
                               "relaxed RMW publishes nothing"});
    }
    return;
  }

  // flag, init-once, published-value: strict release/acquire pairing.
  if (op.kind == OpKind::kStore && eff != Order::kRelease && eff != Order::kSeqCst) {
    findings->push_back({kMismatch, op.file, op.line,
                         opname + " uses " + OrderName(eff) + "; a '" + spec.protocol +
                             "' store publishes and must be std::memory_order_release"});
  }
  if (op.kind == OpKind::kLoad && eff != Order::kAcquire && eff != Order::kConsume &&
      eff != Order::kSeqCst) {
    findings->push_back({kMismatch, op.file, op.line,
                         opname + " uses " + OrderName(eff) + "; a '" + spec.protocol +
                             "' load consumes and must be std::memory_order_acquire"});
  }
  if (rmw && eff == Order::kRelaxed) {
    findings->push_back({kRelaxedSync, op.file, op.line,
                         "relaxed " + opname + ", which is declared as synchronizing ('" +
                             spec.protocol + "'); a relaxed RMW publishes nothing"});
  }

  if (spec.protocol == kPublishedProto) {
    const bool publishes =
        (op.kind == OpKind::kStore && ReleaseClass(eff)) || (rmw && ReleaseClass(eff));
    const bool consumes =
        (op.kind == OpKind::kLoad && AcquireClass(eff)) || (rmw && AcquireClass(eff));
    if (publishes && !Contains(spec.publishers, op.fn)) {
      findings->push_back({kMismatch, op.file, op.line,
                           opname + " publishes from '" + (op.fn.empty() ? "?" : op.fn) +
                               "', which is not in the declared publish= set (" +
                               JoinList(spec.publishers) + ")"});
    }
    if (consumes && !Contains(spec.consumers, op.fn)) {
      findings->push_back({kMismatch, op.file, op.line,
                           opname + " consumes from '" + (op.fn.empty() ? "?" : op.fn) +
                               "', which is not in the declared consume= set (" +
                               JoinList(spec.consumers) + ")"});
    }
  }
}

}  // namespace

bool ParseAtomicsRegistry(const std::string& content, AtomicsConfig* out, std::string* error) {
  out->atomics.clear();
  out->hot_paths.clear();
  std::vector<TomlEntry> entries;
  if (!ParseTomlTables(content, {"atomics", "options"}, &entries, error)) {
    return false;
  }
  for (const TomlEntry& entry : entries) {
    if (entry.section == "options") {
      if (entry.key == "hot_paths") {
        out->hot_paths = entry.value;
        continue;
      }
      *error = "unknown [options] key '" + entry.key + "'";
      return false;
    }
    AtomicProtocolSpec spec;
    spec.line = entry.line;
    std::istringstream tokens(entry.value);
    std::string token;
    bool first = true;
    while (tokens >> token) {
      if (first) {
        spec.protocol = token;
        first = false;
        continue;
      }
      std::vector<std::string>* side = nullptr;
      std::string rest;
      if (token.rfind("publish=", 0) == 0) {
        side = &spec.publishers;
        rest = token.substr(8);
      } else if (token.rfind("consume=", 0) == 0) {
        side = &spec.consumers;
        rest = token.substr(8);
      } else {
        spec.bad_tokens.push_back(token);
        continue;
      }
      std::istringstream names(rest);
      std::string name;
      while (std::getline(names, name, ',')) {
        if (!name.empty()) {
          side->push_back(name);
        }
      }
    }
    out->atomics[entry.key] = spec;
  }
  return true;
}

std::vector<Finding> CheckAtomics(const AtomicsConfig& config, const HotPathConfig& hot,
                                  const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;

  // Pass 1: declarations, operation sites, operator-form accesses.
  ScanResult scan;
  AtomicScanner scanner(&config.atomics);
  for (const SourceFile& file : files) {
    scanner.ScanFile(file, &scan);
  }

  // Pass 2: the call graph, in the wide hot-path posture, in-class methods
  // indexed so edges into header-defined accessors (Counter::Add and friends)
  // resolve.
  ScanOptions options;
  options.index_free_functions = true;
  options.inline_lambdas = true;
  options.over_approximate_unresolved = true;
  options.chained_calls = true;
  options.index_inline_bodies = true;

  CodeIndex index;
  BuildCodeIndex(files, options, &index, nullptr);
  for (const SourceFile& file : files) {
    if (PathEndsWith(file.path, ".cc") || PathEndsWith(file.path, ".cpp")) {
      IndexDefinitions(file, options, &index);
    }
  }
  EdgeClient edges;
  for (const SourceFile& file : files) {
    if (PathEndsWith(file.path, ".cc") || PathEndsWith(file.path, ".cpp")) {
      BodyWalker walker(&index, &options, &edges);
      walker.ScanFile(file);
    }
  }

  // Registry validation.
  for (const auto& [key, spec] : config.atomics) {
    if (!KnownProtocol(spec.protocol)) {
      findings.push_back({kBadProtocol, config.registry_path, spec.line,
                          "'" + key + "' declares unknown protocol '" + spec.protocol +
                              "' (known: counter, flag, published-value, epoch-seqlock, "
                              "init-once)"});
      continue;
    }
    for (const std::string& token : spec.bad_tokens) {
      findings.push_back({kBadProtocol, config.registry_path, spec.line,
                          "'" + key + "' carries unparseable spec token '" + token +
                              "' (expected publish=Fn,... or consume=Fn,...)"});
    }
    if (spec.protocol == kPublishedProto) {
      if (spec.publishers.empty() || spec.consumers.empty()) {
        findings.push_back({kBadProtocol, config.registry_path, spec.line,
                            "'" + key + "' is published-value but does not name both "
                                        "publish= and consume= function sets"});
      }
      std::vector<std::string> named = spec.publishers;
      named.insert(named.end(), spec.consumers.begin(), spec.consumers.end());
      for (const std::string& fn : named) {
        if (index.known_funcs.count(fn) == 0 && index.free_funcs.count(fn) == 0) {
          findings.push_back({kBadProtocol, config.registry_path, spec.line,
                              "'" + key + "' names publish/consume function '" + fn +
                                  "', which the scanned tree does not define"});
        }
      }
    } else if (!spec.publishers.empty() || !spec.consumers.empty()) {
      findings.push_back({kBadProtocol, config.registry_path, spec.line,
                          "'" + key + "' declares publish=/consume= sides but protocol '" +
                              spec.protocol + "' takes none (published-value does)"});
    }
  }

  // Registry drift, both directions.
  std::set<std::string> declared;
  for (const AtomicDecl& decl : scan.decls) {
    declared.insert(decl.key);
    if (config.atomics.count(decl.key) == 0 && !IsSuppressed(decl.raw, kUnregistered)) {
      findings.push_back({kUnregistered, decl.file, decl.line,
                          "std::atomic '" + decl.key +
                              "' is not registered in " + config.registry_path +
                              "; declare its ordering protocol under [atomics]"});
    }
  }
  for (const auto& [key, spec] : config.atomics) {
    if (declared.count(key) == 0) {
      findings.push_back({kStaleEntry, config.registry_path, spec.line,
                          "registry entry '" + key +
                              "' matches no std::atomic declaration in the scanned tree"});
    }
  }

  // Per-operation protocol checks.
  for (const AtomicOp& op : scan.ops) {
    for (const std::string& key : op.keys) {
      const auto it = config.atomics.find(key);
      if (it == config.atomics.end() || !KnownProtocol(it->second.protocol)) {
        continue;
      }
      std::vector<Finding> op_findings;
      CheckOp(op, key, it->second, &op_findings);
      for (const Finding& finding : op_findings) {
        if (!IsSuppressed(op.raw, finding.rule.c_str())) {
          findings.push_back(finding);
        }
      }
    }
  }

  // Release/acquire pairing over the whole scanned tree.
  for (const auto& [key, spec] : config.atomics) {
    if (!KnownProtocol(spec.protocol) || !Synchronizing(spec.protocol) ||
        declared.count(key) == 0) {
      continue;
    }
    const AtomicOp* first_release = nullptr;
    const AtomicOp* first_acquire = nullptr;
    for (const AtomicOp& op : scan.ops) {
      if (!Contains(op.keys, key)) {
        continue;
      }
      const bool rmw = op.kind == OpKind::kRmw || op.kind == OpKind::kCas;
      if ((op.kind == OpKind::kStore || rmw) && ReleaseClass(op.order) && !first_release) {
        first_release = &op;
      }
      if ((op.kind == OpKind::kLoad || rmw) && AcquireClass(op.order) && !first_acquire) {
        first_acquire = &op;
      }
    }
    if (first_release && !first_acquire && !IsSuppressed(first_release->raw, kUnpairedRelease)) {
      findings.push_back({kUnpairedRelease, first_release->file, first_release->line,
                          "release-class store on '" + key + "' ('" + spec.protocol +
                              "') has no matching acquire-class load anywhere in the scanned "
                              "tree; nothing observes the publication"});
    }
    if (first_acquire && !first_release && !IsSuppressed(first_acquire->raw, kUnpairedAcquire)) {
      findings.push_back({kUnpairedAcquire, first_acquire->file, first_acquire->line,
                          "acquire-class load on '" + key + "' ('" + spec.protocol +
                              "') has no matching release-class store anywhere in the scanned "
                              "tree; there is no publication to consume"});
    }
  }

  // seq_cst (explicit or defaulted) reachable from a VLORA_HOT root.
  if (!hot.roots.empty()) {
    std::set<std::string> roots;
    for (const auto& [qual, desc] : hot.roots) {
      (void)desc;
      roots.insert(qual);
    }
    std::set<std::string> boundaries;
    for (const auto& [qual, reason] : hot.boundaries) {
      (void)reason;
      boundaries.insert(qual);
    }
    const Reachability reach = ComputeReachable(roots, edges.callees(), boundaries);
    for (const AtomicOp& op : scan.ops) {
      if (op.order != Order::kDefault && op.order != Order::kSeqCst) {
        continue;
      }
      if (op.fn.empty() || !reach.Contains(op.fn) || IsSuppressed(op.raw, kSeqCstHot)) {
        continue;
      }
      bool registered = false;
      for (const std::string& key : op.keys) {
        registered = registered || config.atomics.count(key) != 0;
      }
      if (!registered) {
        continue;
      }
      findings.push_back({kSeqCstHot, op.file, op.line,
                          std::string(op.order == Order::kDefault ? "defaulted" : "explicit") +
                              " seq_cst " + KindName(op.kind) + " on '" + op.keys[0] +
                              "' on the hot path (every protocol permits weaker orders): " +
                              JoinChain(reach.ChainTo(op.fn))});
    }
  }

  // Operator-form access.
  for (const PlainUse& use : scan.plain) {
    if (IsSuppressed(use.raw, kMixedAccess)) {
      continue;
    }
    findings.push_back({kMixedAccess, use.file, use.line,
                        "operator-form access to registered atomic '" + use.key + "' in '" +
                            (use.fn.empty() ? "?" : use.fn) +
                            "'; an implicit seq_cst op that states no protocol — use "
                            ".load/.store/.fetch_* with an explicit order"});
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& x, const Finding& y) {
    if (x.file != y.file) {
      return x.file < y.file;
    }
    if (x.line != y.line) {
      return x.line < y.line;
    }
    return x.rule < y.rule;
  });
  return findings;
}

std::vector<Finding> CheckAtomicsOverTree(const std::string& toml_path,
                                          const std::vector<std::string>& roots) {
  std::ifstream toml_stream(toml_path);
  if (!toml_stream) {
    return {{kIoError, toml_path, 0, "cannot open atomics registry"}};
  }
  std::ostringstream toml_buf;
  toml_buf << toml_stream.rdbuf();
  AtomicsConfig config;
  std::string error;
  if (!ParseAtomicsRegistry(toml_buf.str(), &config, &error)) {
    return {{kIoError, toml_path, 0, "malformed atomics registry: " + error}};
  }
  config.registry_path = toml_path;

  HotPathConfig hot;
  if (!config.hot_paths.empty()) {
    // Relative hot_paths entries resolve against the registry's directory.
    std::string hot_path = config.hot_paths;
    if (!hot_path.empty() && hot_path[0] != '/') {
      const size_t slash = toml_path.find_last_of('/');
      if (slash != std::string::npos) {
        hot_path = toml_path.substr(0, slash + 1) + hot_path;
      }
    }
    std::ifstream hot_stream(hot_path);
    if (!hot_stream) {
      return {{kIoError, hot_path, 0, "cannot open hot paths file named by [options]"}};
    }
    std::ostringstream hot_buf;
    hot_buf << hot_stream.rdbuf();
    if (!ParseHotPaths(hot_buf.str(), &hot, &error)) {
      return {{kIoError, hot_path, 0, "malformed hot paths file: " + error}};
    }
  }

  std::vector<Finding> findings;
  const std::vector<SourceFile> files = LoadSourceTree(roots, &findings);
  std::vector<Finding> analysis = CheckAtomics(config, hot, files);
  findings.insert(findings.end(), analysis.begin(), analysis.end());
  return findings;
}

}  // namespace lint
}  // namespace vlora
