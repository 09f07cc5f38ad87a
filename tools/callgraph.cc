#include "tools/callgraph.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace vlora {
namespace lint {
namespace {

const char kIoError[] = "io-error";

// Shared regexes. Pattern text for names like Mutex / Lock is assembled from
// adjacent literals the same way lint_rules.cc does, so the whole-tree
// per-line scan never trips over this file's own source.

const std::regex& ClassStartRe() {
  // An attribute (`[[nodiscard]]`, `VLORA_CAPABILITY("mutex")`) may precede the name.
  static const std::regex re(
      "\\b(class|struct)\\s+(?:\\[\\[\\w+\\]\\]\\s+|VLORA_\\w+\\s*(?:\\([^)]*\\))?\\s+)?([A-Za-z_]\\w*)");
  return re;
}

const std::regex& MemberDeclRe() {
  static const std::regex re(
      "^\\s*(?:mutable\\s+)?([A-Za-z_][\\w:]*(?:\\s*<[^;]*>)?[\\s*&]+)(\\w+_)\\s*(?:[;={]|VLORA_)");
  return re;
}

const std::regex& AnnotatedSigRe() {
  // `Name(params) const VLORA_X(...) VLORA_Y {` or `...;` — one level of
  // nested parens inside the parameter list is enough for this tree. The
  // parenthesis group after each macro is optional so marker macros without
  // arguments (VLORA_HOT) are annotations too.
  static const std::regex re(
      "([A-Za-z_]\\w*)\\s*\\(((?:[^()]|\\([^()]*\\))*)\\)\\s*(?:const\\b\\s*)?"
      "((?:VLORA_\\w+\\s*(?:\\([^()]*\\))?\\s*)+)[;{]");
  return re;
}

const std::regex& AnnotationRe() {
  static const std::regex re("VLORA_(\\w+)\\s*(?:\\(([^()]*)\\))?");
  return re;
}

const std::regex& DefStartRe() {
  static const std::regex re("\\b([A-Z]\\w*)::(~?\\w+)\\s*\\(");
  return re;
}

// Free-function definitions: a return type and name starting at column 0.
// Anchoring at the line start keeps body-interior calls from matching;
// keyword guards catch the control-flow lines that survive anchoring.
const std::regex& FreeDefStartRe() {
  static const std::regex re(
      "^(?:static\\s+|inline\\s+|constexpr\\s+)*(?:const\\s+)?"
      "[A-Za-z_][\\w:]*(?:\\s*<[^;{]*>)?[\\s*&]+([A-Za-z_]\\w*)\\s*\\(");
  return re;
}

bool IsKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords = {
      "if", "for", "while", "switch", "return", "else", "do", "sizeof", "case",
      "catch", "delete", "defined", "alignof", "decltype", "static_assert"};
  return kKeywords.count(word) != 0;
}

const std::regex& MemberCallRe() {
  static const std::regex re(
      "\\b([A-Za-z_]\\w*)\\s*((?:\\[[^\\]]*\\])*)\\s*(?:\\.|->)\\s*([A-Za-z_]\\w*)\\s*\\(");
  return re;
}

const std::regex& BareCallRe() {
  static const std::regex re("(?:^|[^.\\w:>])([A-Za-z_]\\w*)\\s*\\(");
  return re;
}

const std::regex& NamespaceCallRe() {
  // `ns::Func(...)` with a lowercase namespace prefix — free-function calls
  // through a namespace qualifier (trace::EmitRouted). Uppercase prefixes are
  // `Class::Static(...)` and stay with the member machinery.
  static const std::regex re("\\b([a-z_]\\w*)::([A-Za-z_]\\w*)\\s*\\(");
  return re;
}

const std::regex& ChainedCallRe() {
  // `...).method(` — a call on the result of another call, e.g. the
  // `Tracer::Global().Emit(...)` singleton idiom. The receiver type is
  // unknowable here; resolution is by method name.
  static const std::regex re("\\)\\s*(?:\\.|->)\\s*([A-Za-z_]\\w*)\\s*\\(");
  return re;
}

const std::regex& LambdaOpenRe() {
  static const std::regex re(
      "\\[[^\\]]*\\]\\s*(?:\\((?:[^()]|\\([^()]*\\))*\\))?\\s*(?:mutable\\s*)?"
      "(?:->\\s*[\\w:<>]+\\s*)?\\{");
  return re;
}

const std::regex& TypedLocalRe() {
  // `Foo* p = ...`, `const Foo& r = ...`, `static Foo* const p = ...`.
  static const std::regex re(
      "(?:^|[(\\s])(?:const\\s+)?([A-Z]\\w*)\\s*[*&]\\s*(?:const\\s+)?(\\w+)\\s*[=:]");
  return re;
}

const std::regex& CallNameRe() {
  static const std::regex re("([A-Za-z_]\\w*)\\s*\\(");
  return re;
}

const std::regex& AutoRangeForRe() {
  static const std::regex re("for\\s*\\(\\s*(?:const\\s+)?auto[*&]?\\s+(\\w+)\\s*:\\s*(\\w+)");
  return re;
}

bool FileIndexed(const ScanOptions& options, const std::string& path) {
  return !options.index_file || options.index_file(path);
}

// Names an in-class definition as its class's method ("void Pump() override"
// -> "void Impl::Pump() override"); false when the text declares no function
// (a brace-initialised member, a nested type).
bool QualifyInClass(const std::string& cls, std::string* sig) {
  std::smatch m;
  if (!std::regex_search(*sig, m, CallNameRe()) || IsKeyword(m[1].str())) {
    return false;
  }
  sig->insert(static_cast<size_t>(m.position(1)), cls + "::");
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Text utilities.
// ---------------------------------------------------------------------------

std::string TrimText(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::string BlankStrings(const std::string& code) {
  std::string out = code;
  bool in_string = false;
  char quote = '"';
  for (size_t i = 0; i < out.size(); ++i) {
    if (in_string) {
      if (out[i] == '\\') {
        out[i] = ' ';
        if (i + 1 < out.size()) {
          out[i + 1] = ' ';
          ++i;
        }
        continue;
      }
      if (out[i] == quote) {
        in_string = false;
        continue;
      }
      out[i] = ' ';
    } else if (out[i] == '"' || out[i] == '\'') {
      in_string = true;
      quote = out[i];
    }
  }
  return out;
}

int CountChar(const std::string& s, char c) {
  return static_cast<int>(std::count(s.begin(), s.end(), c));
}

bool IsSuppressed(const std::string& raw_line, const char* rule) {
  const std::string marker = std::string("vlora-lint: allow(") + rule + ")";
  return raw_line.find(marker) != std::string::npos;
}

std::string LastClassIdent(const std::string& type_text) {
  static const std::regex ident_re("\\b([A-Z]\\w*)\\b");
  std::string last;
  for (std::sregex_iterator it(type_text.begin(), type_text.end(), ident_re), end; it != end;
       ++it) {
    last = (*it)[1].str();
  }
  return last;
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::istringstream stream(content);
  std::string line;
  while (std::getline(stream, line)) {
    lines.push_back(line);
  }
  return lines;
}

bool PathEndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Pass 1: the code index.
// ---------------------------------------------------------------------------

namespace {

void ScanFileDeclarations(const SourceFile& file, const ScanOptions& options, CodeIndex* index,
                          const DeclLineFn& on_decl_line) {
  ClassScopes classes;
  int depth = 0;
  bool in_block = false;
  std::string decl_buf;
  int decl_buf_line = 0;
  int decl_buf_depth = 0;
  const std::vector<std::string> raw_lines = SplitLines(file.content);
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& raw = raw_lines[i];
    const std::string code = BlankStrings(StripComments(raw, &in_block));
    const int line_no = static_cast<int>(i) + 1;
    const std::string current_class = classes.current();
    const int class_depth = classes.depth();

    if (on_decl_line) {
      on_decl_line(current_class, code, raw, file.path, line_no);
    }
    classes.Enter(code, depth);

    // Member types for call-receiver resolution.
    if (!current_class.empty()) {
      std::smatch tm;
      if (std::regex_search(code, tm, MemberDeclRe())) {
        const std::string type = LastClassIdent(tm[1].str());
        if (!type.empty()) {
          index->member_types[current_class + "::" + tm[2].str()] = type;
        }
      }
    }

    // Annotated function declarations and in-class bodies (logical-line
    // buffered; a lone closing brace ends the previous logical line).
    if (decl_buf.find_first_not_of(" }") == std::string::npos) {
      decl_buf.clear();
      decl_buf_line = line_no;
      decl_buf_depth = depth;
    }
    decl_buf += code;
    decl_buf += ' ';
    if (code.find(';') != std::string::npos || code.find('{') != std::string::npos) {
      std::smatch sm;
      const size_t brace = decl_buf.find('{');
      if (!current_class.empty() && decl_buf_depth == class_depth + 1 &&
          brace < decl_buf.find(';') && std::regex_search(decl_buf, sm, CallNameRe()) &&
          static_cast<size_t>(sm.position(0)) < brace && !IsKeyword(sm[1].str())) {
        const std::string qual = current_class + "::" + sm[1].str();
        if (decl_buf.find("virtual") == std::string::npos) {
          index->inline_bodies.insert(qual);
        }
        if (options.index_inline_bodies) {
          index->known_funcs.insert(qual);
          index->method_classes[sm[1].str()].insert(current_class);
        }
      }
      if (std::regex_search(decl_buf, sm, AnnotatedSigRe())) {
        const std::string fname = sm[1].str();
        const std::string qual = current_class.empty() ? fname : current_class + "::" + fname;
        std::vector<SigAnnotation>& annos = index->annotations[qual];
        if (!current_class.empty()) {
          index->method_classes[fname].insert(current_class);
          index->known_funcs.insert(qual);
        } else if (options.index_free_functions) {
          index->free_funcs.insert(qual);
          index->known_funcs.insert(qual);
        }
        std::smatch am;
        std::string rest = sm[3].str();
        while (std::regex_search(rest, am, AnnotationRe())) {
          annos.push_back({am[1].str(), am[2].matched ? am[2].str() : "", file.path,
                           decl_buf_line});
          rest = am.suffix().str();
        }
      }
      decl_buf.clear();
    }

    depth += CountChar(code, '{') - CountChar(code, '}');
    classes.Leave(depth);
  }
}

}  // namespace

void ClassScopes::Enter(const std::string& code, int depth) {
  std::smatch cm;
  if (code.find("enum") == std::string::npos && std::regex_search(code, cm, ClassStartRe())) {
    const size_t after = static_cast<size_t>(cm.position(0) + cm.length(0));
    const size_t brace = code.find('{', after);
    const size_t semi = code.find(';', after);
    if (brace != std::string::npos && (semi == std::string::npos || brace < semi)) {
      stack_.push_back({cm[2].str(), depth});
    } else if (semi == std::string::npos) {
      pending_ = cm[2].str();
    }
  } else if (!pending_.empty()) {
    const size_t brace = code.find('{');
    const size_t semi = code.find(';');
    if (brace != std::string::npos && (semi == std::string::npos || brace < semi)) {
      stack_.push_back({pending_, depth});
      pending_.clear();
    } else if (semi != std::string::npos) {
      pending_.clear();
    }
  }
}

void ClassScopes::Leave(int depth) {
  while (!stack_.empty() && depth <= stack_.back().depth) {
    stack_.pop_back();
  }
}

void BuildCodeIndex(const std::vector<SourceFile>& files, const ScanOptions& options,
                    CodeIndex* index, const DeclLineFn& on_decl_line) {
  for (const SourceFile& file : files) {
    if (!FileIndexed(options, file.path)) {
      continue;
    }
    ScanFileDeclarations(file, options, index, on_decl_line);
  }
}

void IndexDefinitions(const SourceFile& file, const ScanOptions& options, CodeIndex* index) {
  if (!FileIndexed(options, file.path)) {
    return;
  }
  bool in_block = false;
  for (const std::string& raw : SplitLines(file.content)) {
    const std::string code = BlankStrings(StripComments(raw, &in_block));
    std::smatch m;
    std::string rest = code;
    while (std::regex_search(rest, m, DefStartRe())) {
      index->known_funcs.insert(m[1].str() + "::" + m[2].str());
      index->method_classes[m[2].str()].insert(m[1].str());
      rest = m.suffix().str();
    }
    if (options.index_free_functions && std::regex_search(code, m, FreeDefStartRe()) &&
        !IsKeyword(m[1].str())) {
      index->free_funcs.insert(m[1].str());
      index->known_funcs.insert(m[1].str());
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: the body walker.
// ---------------------------------------------------------------------------

BodyWalker::BodyWalker(const CodeIndex* index, const ScanOptions* options, BodyClient* client)
    : index_(index), options_(options), client_(client) {}

void BodyWalker::ScanFile(const SourceFile& file) {
  path_ = file.path;
  header_ = PathEndsWith(file.path, ".h");
  classes_ = ClassScopes();
  depth_ = 0;
  in_block_ = false;
  in_func_ = false;
  collecting_sig_ = false;
  sig_buf_.clear();
  lambda_suppress_depth_ = -1;
  const std::vector<std::string> raw_lines = SplitLines(file.content);
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    ProcessLine(raw_lines[i], static_cast<int>(i) + 1);
    classes_.Leave(depth_);
  }
}

std::string BodyWalker::ReceiverClass(const std::string& receiver) const {
  if (receiver == "this") {
    return fn_class_;
  }
  auto local = locals_.find(receiver);
  if (local != locals_.end()) {
    return local->second;
  }
  auto member = index_->member_types.find(fn_class_ + "::" + receiver);
  if (member != index_->member_types.end()) {
    return member->second;
  }
  return "";
}

void BodyWalker::EnterFunction(const std::string& sig, int close_depth) {
  std::smatch m;
  if (std::regex_search(sig, m, DefStartRe())) {
    fn_class_ = m[1].str();
    fn_qual_ = fn_class_ + "::" + m[2].str();
  } else if (options_->index_free_functions) {
    // Column-0 free-function definitions (the sig buffer starts at the def
    // line, so the anchor still means column 0 of the source line).
    std::smatch fm;
    if (!std::regex_search(sig, fm, FreeDefStartRe()) || IsKeyword(fm[1].str())) {
      in_func_ = false;
      return;
    }
    fn_class_.clear();
    fn_qual_ = fm[1].str();
  } else {
    in_func_ = false;
    return;
  }
  fn_close_depth_ = close_depth;
  in_func_ = true;
  locals_.clear();
  // Parameters typed `Class* p` / `Class& p`.
  std::smatch pm;
  std::string rest = sig;
  static const std::regex param_re("([A-Z]\\w*)\\s*[*&]\\s*(\\w+)\\s*[,)]");
  while (std::regex_search(rest, pm, param_re)) {
    locals_[pm[2].str()] = pm[1].str();
    rest = pm.suffix().str();
  }
  if (client_ != nullptr) {
    client_->OnFunctionEnter(*this, sig, close_depth + 1);
  }
}

void BodyWalker::EmitCallsFor(const std::string& text, const std::string& raw, int line_no) {
  if (client_ == nullptr) {
    return;
  }
  std::smatch m;

  // Member calls. A typed receiver wins when its class has a body for the
  // method, in a .cc or inline in the class; an unresolved receiver falls
  // back to a uniquely named method; over_approximate_unresolved
  // additionally fans anything still unresolved (a pure-virtual or
  // inherited method included) out to every class defining the method.
  std::string rest = text;
  while (std::regex_search(rest, m, MemberCallRe())) {
    const std::string receiver = m[1].str();
    const std::string method = m[3].str();
    std::string cls = ReceiverClass(receiver);
    if (cls.empty()) {
      auto by_name = index_->method_classes.find(method);
      if (by_name != index_->method_classes.end() && by_name->second.size() == 1) {
        cls = *by_name->second.begin();
      }
    }
    bool emitted = false;
    if (!cls.empty() && (index_->known_funcs.count(cls + "::" + method) ||
                         index_->inline_bodies.count(cls + "::" + method))) {
      client_->OnCall(*this, cls + "::" + method, raw, line_no);
      emitted = true;
    }
    if (!emitted && options_->over_approximate_unresolved) {
      auto by_name = index_->method_classes.find(method);
      if (by_name != index_->method_classes.end()) {
        for (const std::string& definer : by_name->second) {
          const std::string qual = definer + "::" + method;
          if (index_->known_funcs.count(qual)) {
            client_->OnCall(*this, qual, raw, line_no);
          }
        }
      }
    }
    rest = m.suffix().str();
  }

  // Bare calls (same class, a uniquely named method, or a free function).
  rest = text;
  while (std::regex_search(rest, m, BareCallRe())) {
    const std::string method = m[1].str();
    std::string callee;
    if (!fn_class_.empty() && index_->known_funcs.count(fn_class_ + "::" + method)) {
      callee = fn_class_ + "::" + method;
    } else if (options_->index_free_functions && index_->free_funcs.count(method)) {
      callee = method;
    } else {
      auto by_name = index_->method_classes.find(method);
      if (by_name != index_->method_classes.end() && by_name->second.size() == 1 &&
          index_->known_funcs.count(*by_name->second.begin() + "::" + method)) {
        callee = *by_name->second.begin() + "::" + method;
      }
    }
    if (!callee.empty() && callee != fn_qual_) {
      client_->OnCall(*this, callee, raw, line_no);
    }
    rest = m.suffix().str();
  }

  // Namespace-qualified free-function calls (trace::EmitRouted(...)).
  if (options_->index_free_functions) {
    rest = text;
    while (std::regex_search(rest, m, NamespaceCallRe())) {
      const std::string name = m[2].str();
      if (index_->free_funcs.count(name) && name != fn_qual_) {
        client_->OnCall(*this, name, raw, line_no);
      }
      rest = m.suffix().str();
    }
  }

  // Chained calls, resolved by method name only.
  if (options_->chained_calls) {
    rest = text;
    while (std::regex_search(rest, m, ChainedCallRe())) {
      const std::string method = m[1].str();
      auto by_name = index_->method_classes.find(method);
      if (by_name != index_->method_classes.end()) {
        const bool fan_out =
            by_name->second.size() == 1 || options_->over_approximate_unresolved;
        if (fan_out) {
          for (const std::string& definer : by_name->second) {
            const std::string qual = definer + "::" + method;
            if (index_->known_funcs.count(qual) && qual != fn_qual_) {
              client_->OnCall(*this, qual, raw, line_no);
            }
          }
        }
      }
      rest = m.suffix().str();
    }
  }
}

void BodyWalker::ScanBodyText(std::string text, const std::string& raw, int line_no,
                              int depth_at_start) {
  if (!options_->inline_lambdas) {
    // Excise lambdas that open and close within this line; multi-line lambdas
    // suppress scanning until their closing brace (they run on other threads,
    // with no context inherited from here).
    std::smatch lm;
    while (std::regex_search(text, lm, LambdaOpenRe())) {
      const size_t open = static_cast<size_t>(lm.position(0) + lm.length(0)) - 1;
      int bal = 0;
      size_t close = std::string::npos;
      for (size_t i = open; i < text.size(); ++i) {
        if (text[i] == '{') {
          ++bal;
        } else if (text[i] == '}') {
          if (--bal == 0) {
            close = i;
            break;
          }
        }
      }
      if (close == std::string::npos) {
        int lead = 0;
        for (size_t i = 0; i < static_cast<size_t>(lm.position(0)); ++i) {
          if (text[i] == '{') {
            ++lead;
          } else if (text[i] == '}') {
            --lead;
          }
        }
        lambda_suppress_depth_ = depth_at_start + lead;
        text = text.substr(0, static_cast<size_t>(lm.position(0)));
        break;
      }
      text.erase(static_cast<size_t>(lm.position(0)),
                 close - static_cast<size_t>(lm.position(0)) + 1);
    }
  }

  // Local typings.
  std::smatch m;
  std::string rest = text;
  while (std::regex_search(rest, m, TypedLocalRe())) {
    locals_[m[2].str()] = m[1].str();
    rest = m.suffix().str();
  }
  if (std::regex_search(text, m, AutoRangeForRe())) {
    auto member = index_->member_types.find(fn_class_ + "::" + m[2].str());
    if (member != index_->member_types.end()) {
      locals_[m[1].str()] = member->second;
    }
  }

  if (client_ != nullptr) {
    client_->OnBodyText(*this, text, raw, line_no, depth_at_start);
  }
  EmitCallsFor(text, raw, line_no);
}

void BodyWalker::ProcessLine(const std::string& raw, int line_no) {
  const std::string code = BlankStrings(StripComments(raw, &in_block_));
  const int depth_before = depth_;
  std::string body_text;

  if (lambda_suppress_depth_ >= 0) {
    depth_ += CountChar(code, '{') - CountChar(code, '}');
    if (depth_ <= lambda_suppress_depth_) {
      lambda_suppress_depth_ = -1;
    }
    PopScopes();
    return;
  }

  if (!in_func_) {
    // In a header, a definition is a logical line that starts directly in a
    // class body.
    const std::string cls = classes_.current();
    const bool def_start =
        header_ ? !cls.empty() && depth_before == classes_.depth() + 1 &&
                      !TrimText(code).empty() && TrimText(code)[0] != '#'
                : std::regex_search(code, DefStartRe()) ||
                      (options_->index_free_functions &&
                       std::regex_search(code, FreeDefStartRe()));
    if (header_) {
      classes_.Enter(code, depth_before);
    }
    if (!collecting_sig_ && def_start) {
      collecting_sig_ = true;
      sig_buf_.clear();
    }
    if (collecting_sig_) {
      sig_buf_ += code;
      sig_buf_ += ' ';
      const size_t brace = sig_buf_.find('{');
      const size_t semi = sig_buf_.find(';');
      if (brace != std::string::npos && (semi == std::string::npos || brace < semi)) {
        std::string sig = sig_buf_.substr(0, brace);
        if (!header_ || QualifyInClass(cls, &sig)) {
          EnterFunction(sig, depth_before);
        }
        collecting_sig_ = false;
        // Anything after the body-open brace on this line is body text
        // (one-line definitions like `A::~A() { Stop(); }`).
        const size_t line_brace = code.find('{');
        if (in_func_ && line_brace != std::string::npos && line_brace + 1 < code.size()) {
          body_text = code.substr(line_brace + 1);
        }
        sig_buf_.clear();
      } else if (semi != std::string::npos) {
        collecting_sig_ = false;
        sig_buf_.clear();
      }
      if (!in_func_ || body_text.empty()) {
        depth_ += CountChar(code, '{') - CountChar(code, '}');
        PopScopes();
        return;
      }
      // Fall through to scan the same-line body remainder.
      ScanBodyText(body_text, raw, line_no, depth_before + 1);
      depth_ += CountChar(code, '{') - CountChar(code, '}');
      PopScopes();
      return;
    }
    depth_ += CountChar(code, '{') - CountChar(code, '}');
    return;
  }

  ScanBodyText(code, raw, line_no, depth_before);
  depth_ += CountChar(code, '{') - CountChar(code, '}');
  PopScopes();
}

void BodyWalker::PopScopes() {
  if (client_ != nullptr && in_func_) {
    client_->OnLineEnd(*this, depth_);
  }
  if (in_func_ && depth_ <= fn_close_depth_) {
    in_func_ = false;
    locals_.clear();
    if (client_ != nullptr) {
      client_->OnFunctionExit(*this);
    }
    fn_class_.clear();
    fn_qual_.clear();
  }
}

// ---------------------------------------------------------------------------
// Graph helpers.
// ---------------------------------------------------------------------------

void PropagateTransitive(const std::map<std::string, std::set<std::string>>& callees,
                         std::map<std::string, std::set<std::string>>* attrs) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [fn, fns] : callees) {
      std::set<std::string>& mine = (*attrs)[fn];
      const size_t before = mine.size();
      for (const std::string& callee : fns) {
        auto theirs = attrs->find(callee);
        if (theirs != attrs->end() && &theirs->second != &mine) {
          mine.insert(theirs->second.begin(), theirs->second.end());
        }
      }
      changed = changed || mine.size() != before;
    }
  }
}

std::vector<std::string> Reachability::ChainTo(const std::string& fn) const {
  std::vector<std::string> chain;
  std::string node = fn;
  while (true) {
    chain.push_back(node);
    auto it = parent.find(node);
    if (it == parent.end() || it->second.empty()) {
      break;
    }
    node = it->second;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

Reachability ComputeReachable(const std::set<std::string>& roots,
                              const std::map<std::string, std::set<std::string>>& callees,
                              const std::set<std::string>& boundaries) {
  Reachability out;
  std::deque<std::string> queue;
  for (const std::string& root : roots) {
    if (boundaries.count(root)) {
      continue;
    }
    out.parent[root] = "";
    queue.push_back(root);
  }
  while (!queue.empty()) {
    const std::string node = queue.front();
    queue.pop_front();
    auto edges = callees.find(node);
    if (edges == callees.end()) {
      continue;
    }
    for (const std::string& next : edges->second) {
      if (out.parent.count(next) || boundaries.count(next)) {
        continue;
      }
      out.parent[next] = node;
      queue.push_back(next);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Config files and the filesystem.
// ---------------------------------------------------------------------------

bool ParseTomlTables(const std::string& content, const std::set<std::string>& allowed_sections,
                     std::vector<TomlEntry>* out, std::string* error) {
  out->clear();
  std::string section;
  int line_no = 0;
  for (const std::string& raw : SplitLines(content)) {
    ++line_no;
    std::string line = raw;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = TrimText(line);
    if (line.empty()) {
      continue;
    }
    if (line.front() == '[' && line.back() == ']') {
      section = TrimText(line.substr(1, line.size() - 2));
      if (allowed_sections.count(section) == 0) {
        *error = "line " + std::to_string(line_no) + ": unknown section [" + section + "]";
        return false;
      }
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos || section.empty()) {
      *error = "line " + std::to_string(line_no) + ": expected `key = value` inside a section";
      return false;
    }
    auto unquote = [](std::string s) {
      s = TrimText(s);
      if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
        s = s.substr(1, s.size() - 2);
      }
      return s;
    };
    const std::string key = unquote(line.substr(0, eq));
    const std::string value = unquote(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      *error = "line " + std::to_string(line_no) + ": empty key or value";
      return false;
    }
    out->push_back({section, key, value, line_no});
  }
  return true;
}

std::vector<SourceFile> LoadSourceTree(const std::vector<std::string>& roots,
                                       std::vector<Finding>* findings) {
  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (std::filesystem::is_regular_file(root, ec)) {
      paths.push_back(root);
      continue;
    }
    std::filesystem::recursive_directory_iterator it(root, ec), end;
    if (ec) {
      findings->push_back({kIoError, root, 0, "cannot walk directory: " + ec.message()});
      continue;
    }
    for (; it != end; it.increment(ec)) {
      if (ec) {
        break;
      }
      if (!it->is_regular_file()) {
        continue;
      }
      const std::string path = it->path().generic_string();
      if (PathEndsWith(path, ".h") || PathEndsWith(path, ".cc") || PathEndsWith(path, ".cpp")) {
        paths.push_back(path);
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream stream(path);
    if (!stream) {
      findings->push_back({kIoError, path, 0, "cannot open file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    files.push_back({path, buffer.str()});
  }
  return files;
}

}  // namespace lint
}  // namespace vlora
