#include "frontend/lexer.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

#include "support/cancel.hpp"

namespace soap::frontend {

namespace {

[[noreturn]] void fail(const std::string& msg, int line, int col) {
  throw support::AnalysisError(support::StatusCode::kInvalidInput,
                               "lex error at " + std::to_string(line) + ":" +
                                   std::to_string(col) + ": " + msg);
}

// Two- then one-character operators.
const char* kTwoCharOps[] = {"+=", "-=", "*=", "/=", "==", "<=", ">=",
                             "++", "--", "->", "!="};

bool starts_two_char_op(const std::string& s, std::size_t i,
                        std::string* out) {
  if (i + 1 >= s.size()) return false;
  for (const char* op : kTwoCharOps) {
    if (s[i] == op[0] && s[i + 1] == op[1]) {
      *out = op;
      return true;
    }
  }
  return false;
}

void lex_line(const std::string& s, int line, std::vector<Token>* out) {
  std::size_t i = 0;
  while (i < s.size()) {
    char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    int col = static_cast<int>(i) + 1;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < s.size() && (std::isalnum(static_cast<unsigned char>(s[j])) ||
                              s[j] == '_')) {
        ++j;
      }
      out->push_back({TokenKind::kIdent, s.substr(i, j - i), 0, line, col});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < s.size() && (std::isdigit(static_cast<unsigned char>(s[j])) ||
                              s[j] == '.' || s[j] == 'e' || s[j] == 'f')) {
        // Floating constants appear in statement bodies (e.g. 0.33*...);
        // their exact value is irrelevant to the access analysis.
        if ((s[j] == 'e') && j + 1 < s.size() &&
            !std::isdigit(static_cast<unsigned char>(s[j + 1])) &&
            s[j + 1] != '-' && s[j + 1] != '+') {
          break;
        }
        ++j;
      }
      Token t{TokenKind::kNumber, s.substr(i, j - i), 0, line, col};
      if (t.text.find_first_not_of("0123456789") == std::string::npos) {
        const std::from_chars_result parsed = std::from_chars(
            t.text.data(), t.text.data() + t.text.size(), t.number);
        if (parsed.ec != std::errc()) {
          fail("integer literal " + t.text + " out of range", line, col);
        }
      } else {
        try {
          t.number = std::stoll(t.text);
        } catch (...) {
          t.number = 0;  // float literal; value unused
        }
      }
      out->push_back(std::move(t));
      i = j;
      continue;
    }
    std::string two;
    if (starts_two_char_op(s, i, &two)) {
      out->push_back({TokenKind::kPunct, two, 0, line, col});
      i += 2;
      continue;
    }
    static const std::string kSingles = "()[]{}:;,=+-*/<>.&|%!";
    if (kSingles.find(c) != std::string::npos) {
      out->push_back({TokenKind::kPunct, std::string(1, c), 0, line, col});
      ++i;
      continue;
    }
    fail(std::string("unexpected character '") + c + "'", line, col);
  }
}

std::string strip_comment(const std::string& line, bool python) {
  std::size_t pos = python ? line.find('#') : line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

}  // namespace

bool looks_like_c(const std::string& source) {
  return source.find("for (") != std::string::npos ||
         source.find("for(") != std::string::npos ||
         source.find('{') != std::string::npos ||
         source.find(';') != std::string::npos;
}

std::vector<Token> tokenize(const std::string& source, bool python_layout) {
  std::vector<Token> out;
  std::vector<int> indents = {0};
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    std::size_t eol = source.find('\n', pos);
    std::string line = source.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    ++line_no;
    line = strip_comment(line, python_layout);
    // Trailing whitespace / blank lines.
    std::size_t content = line.find_first_not_of(" \t");
    if (content == std::string::npos) {
      if (eol == std::string::npos) break;
      pos = eol + 1;
      continue;
    }
    if (python_layout) {
      int indent = 0;
      for (std::size_t i = 0; i < content; ++i) {
        indent += line[i] == '\t' ? 8 : 1;
      }
      if (indent > indents.back()) {
        indents.push_back(indent);
        out.push_back({TokenKind::kIndent, "", 0, line_no, 1});
      } else {
        while (indent < indents.back()) {
          indents.pop_back();
          out.push_back({TokenKind::kDedent, "", 0, line_no, 1});
        }
        if (indent != indents.back()) {
          fail("inconsistent indentation", line_no, 1);
        }
      }
    }
    lex_line(line, line_no, &out);
    if (python_layout) {
      out.push_back({TokenKind::kNewline, "", 0, line_no,
                     static_cast<int>(line.size()) + 1});
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  if (python_layout) {
    while (indents.size() > 1) {
      indents.pop_back();
      out.push_back({TokenKind::kDedent, "", 0, line_no, 1});
    }
  }
  out.push_back({TokenKind::kEnd, "", 0, line_no + 1, 1});
  return out;
}

}  // namespace soap::frontend
