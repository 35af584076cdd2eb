// docs/PROTOCOL.md agrees with the verb table (serve::Verbs()): the
// request envelope's `verb` cell lists every verb in table order, its
// `session` cell names exactly the verbs that need no session, and the
// "## Verbs" section has one "### `verb`" heading per verb. The document
// path is injected by CMake.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "serve/service.hpp"

#ifndef SISD_PROTOCOL_DOC
#error "SISD_PROTOCOL_DOC must be defined by the build system"
#endif

namespace sisd::serve {
namespace {

std::vector<std::string> DocLines() {
  std::ifstream in(SISD_PROTOCOL_DOC);
  std::ostringstream text;
  text << in.rdbuf();
  return SplitString(text.str(), '\n');
}

/// The words quoted in backticks in `text`, in order.
std::vector<std::string> BacktickedWords(const std::string& text) {
  std::vector<std::string> words;
  size_t open = text.find('`');
  while (open != std::string::npos) {
    const size_t close = text.find('`', open + 1);
    if (close == std::string::npos) break;
    words.push_back(text.substr(open + 1, close - open - 1));
    open = text.find('`', close + 1);
  }
  return words;
}

/// The meaning cell of the request-envelope row for `key`.
std::string EnvelopeCell(const std::vector<std::string>& lines,
                         const std::string& key) {
  const std::string prefix = "| `" + key + "`";
  for (const std::string& line : lines) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::vector<std::string> cells = SplitString(line, '|');
    return cells.size() > 3 ? cells[3] : "";
  }
  return "";
}

TEST(ProtocolDocsTest, EnvelopeListsEveryVerbInTableOrder) {
  std::vector<std::string> expected;
  for (const Verb& verb : Verbs()) expected.push_back(verb.name);
  EXPECT_EQ(BacktickedWords(EnvelopeCell(DocLines(), "verb")), expected);
}

TEST(ProtocolDocsTest, EnvelopeNamesTheSessionlessVerbs) {
  std::vector<std::string> expected;
  for (const Verb& verb : Verbs()) {
    if (!verb.needs_session) expected.push_back(verb.name);
  }
  EXPECT_EQ(BacktickedWords(EnvelopeCell(DocLines(), "session")), expected);
}

TEST(ProtocolDocsTest, VerbsSectionHasOneHeadingPerVerb) {
  std::set<std::string> headings;
  bool in_verbs = false;
  for (const std::string& line : DocLines()) {
    if (line.rfind("## ", 0) == 0) in_verbs = line == "## Verbs";
    if (in_verbs && line.rfind("### `", 0) == 0) {
      EXPECT_TRUE(headings.insert(BacktickedWords(line).front()).second)
          << "duplicate heading: " << line;
    }
  }
  std::set<std::string> expected;
  for (const Verb& verb : Verbs()) expected.insert(verb.name);
  EXPECT_EQ(headings, expected);
}

}  // namespace
}  // namespace sisd::serve
