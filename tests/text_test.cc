#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace tklus {
namespace {

// ------------------------------------------------------------- stemmer

struct StemCase {
  const char* in;
  const char* out;
  // First two bytes of the address `in` had in the build whose test names
  // were recorded (see PrintTo).
  const char* recorded;
};

// Prints the name each case was first recorded under. With no PrintTo,
// gtest printed the struct's raw bytes, so each test name held the address
// of `in` — cut off after its 8 bytes by the 100-character name limit of
// the recorded list. Such an address changes with every link; pinning the
// recorded one keeps every case's name the same in every build.
void PrintTo(const StemCase& c, std::ostream* os) {
  *os << "16-byte object <" << c.recorded << " 43-D9 29-56 00-00";
}

class PorterStemmerParamTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerParamTest, MatchesReference) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem(GetParam().in), GetParam().out);
}

// Expected outputs from Porter's reference vocabulary (voc.txt/output.txt).
INSTANTIATE_TEST_SUITE_P(
    ReferenceVocabulary, PorterStemmerParamTest,
    ::testing::Values(
        StemCase{"caresses", "caress", "02-74"},
        StemCase{"ponies", "poni", "0B-74"}, StemCase{"ties", "ti", "17-74"},
        StemCase{"caress", "caress", "CB-73"}, StemCase{"cats", "cat", "1C-74"},
        StemCase{"feed", "feed", "D2-73"}, StemCase{"agreed", "agre", "25-74"},
        StemCase{"plastered", "plaster", "31-74"},
        StemCase{"bled", "bled", "68-74"},
        StemCase{"motoring", "motor", "43-74"},
        StemCase{"sing", "sing", "7C-7B"},
        StemCase{"conflated", "conflat", "52-74"},
        StemCase{"troubled", "troubl", "64-74"},
        StemCase{"sized", "size", "74-74"}, StemCase{"hopping", "hop", "7F-74"},
        StemCase{"tanned", "tan", "87-74"},
        StemCase{"falling", "fall", "92-74"},
        StemCase{"hissing", "hiss", "9F-74"},
        StemCase{"fizzed", "fizz", "AC-74"},
        StemCase{"failing", "fail", "B8-74"},
        StemCase{"filing", "file", "C5-74"},
        StemCase{"happy", "happi", "D1-74"}, StemCase{"sky", "sky", "D7-73"},
        StemCase{"relational", "relat", "DD-74"},
        StemCase{"conditional", "condit", "EE-74"},
        StemCase{"rational", "ration", "01-75"},
        StemCase{"valenci", "valenc", "11-75"},
        StemCase{"hesitanci", "hesit", "20-75"},
        StemCase{"digitizer", "digit", "30-75"},
        StemCase{"conformabli", "conform", "40-75"},
        StemCase{"radicalli", "radic", "54-75"},
        StemCase{"differentli", "differ", "64-75"},
        StemCase{"vileli", "vile", "77-75"},
        StemCase{"analogousli", "analog", "83-75"},
        StemCase{"vietnamization", "vietnam", "96-75"},
        StemCase{"predication", "predic", "AD-75"},
        StemCase{"operator", "oper", "C0-75"},
        StemCase{"feudalism", "feudal", "CE-75"},
        StemCase{"decisiveness", "decis", "DF-75"},
        StemCase{"hopefulness", "hope", "F2-75"},
        StemCase{"callousness", "callous", "FE-75"},
        StemCase{"formaliti", "formal", "12-76"},
        StemCase{"sensitiviti", "sensit", "1C-76"},
        StemCase{"sensibiliti", "sensibl", "2F-76"},
        StemCase{"triplicate", "triplic", "43-76"},
        StemCase{"formative", "form", "56-76"},
        StemCase{"formalize", "formal", "60-76"},
        StemCase{"electriciti", "electr", "6A-76"},
        StemCase{"electrical", "electr", "76-76"},
        StemCase{"hopeful", "hope", "81-76"},
        StemCase{"goodness", "good", "89-76"},
        StemCase{"revival", "reviv", "92-76"},
        StemCase{"allowance", "allow", "A0-76"},
        StemCase{"inference", "infer", "B0-76"},
        StemCase{"airliner", "airlin", "C0-76"},
        StemCase{"gyroscopic", "gyroscop", "D0-76"},
        StemCase{"adjustable", "adjust", "E4-76"},
        StemCase{"defensible", "defens", "EF-76"},
        StemCase{"irritant", "irrit", "01-77"},
        StemCase{"replacement", "replac", "10-77"},
        StemCase{"adjustment", "adjust", "23-77"},
        StemCase{"dependent", "depend", "2E-77"},
        StemCase{"adoption", "adopt", "3F-77"},
        StemCase{"homologou", "homolog", "4E-77"},
        StemCase{"communism", "commun", "58-77"},
        StemCase{"activate", "activ", "69-77"},
        StemCase{"angulariti", "angular", "78-77"},
        StemCase{"homologous", "homolog", "8B-77"},
        StemCase{"effective", "effect", "96-77"},
        StemCase{"bowdlerize", "bowdler", "A7-77"},
        StemCase{"probate", "probat", "BA-77"},
        StemCase{"rate", "rate", "FD-73"}, StemCase{"cease", "ceas", "C9-77"},
        StemCase{"controll", "control", "D4-77"},
        StemCase{"roll", "roll", "D8-77"}));

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem("at"), "at");
  EXPECT_EQ(stemmer.Stem("by"), "by");
  EXPECT_EQ(stemmer.Stem(""), "");
  EXPECT_EQ(stemmer.Stem("a"), "a");
}

TEST(PorterStemmerTest, NonLowercasePassThrough) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem("Hotel"), "Hotel");   // not pre-lowercased
  EXPECT_EQ(stemmer.Stem("caf3"), "caf3");     // digit
}

TEST(PorterStemmerTest, PaperDomainWords) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem("restaurants"), "restaur");
  EXPECT_EQ(stemmer.Stem("restaurant"), "restaur");
  EXPECT_EQ(stemmer.Stem("hotels"), "hotel");
  EXPECT_EQ(stemmer.Stem("babysitters"), "babysitt");
  EXPECT_EQ(stemmer.Stem("babysitter"), "babysitt");
}

TEST(PorterStemmerTest, EdgeSuffixWords) {
  PorterStemmer stemmer;
  // Words that are pure suffixes must not crash or misindex.
  EXPECT_EQ(stemmer.Stem("ion"), "ion");
  EXPECT_EQ(stemmer.Stem("ing"), "ing");
  EXPECT_EQ(stemmer.Stem("sses"), "ss");  // step 1a: SSES -> SS
  EXPECT_EQ(stemmer.Stem("eed"), "eed");
}

// ------------------------------------------------------------ stopwords

TEST(StopwordsTest, PaperExamples) {
  // §II-A: "excludes popular stop words (e.g., this and that)".
  EXPECT_TRUE(IsStopWord("this"));
  EXPECT_TRUE(IsStopWord("that"));
  EXPECT_TRUE(IsStopWord("the"));
  EXPECT_TRUE(IsStopWord("rt"));
}

TEST(StopwordsTest, ContentWordsKept) {
  EXPECT_FALSE(IsStopWord("hotel"));
  EXPECT_FALSE(IsStopWord("restaurant"));
  EXPECT_FALSE(IsStopWord("toronto"));
}

TEST(StopwordsTest, ListIsSortedForBinarySearch) {
  // The binary_search contract: if the internal list were unsorted, known
  // members would be missed. Spot-check words across the alphabet.
  for (const char* w : {"a", "because", "doing", "herself", "itself",
                        "ourselves", "through", "yourselves"}) {
    EXPECT_TRUE(IsStopWord(w)) << w;
  }
  EXPECT_GT(StopWordCount(), 100u);
}

// ------------------------------------------------------------ tokenizer

TEST(TokenizerTest, PaperTweetA) {
  Tokenizer tok;
  const auto terms = tok.Tokenize("I'm at Toronto Marriott Bloor Yorkville Hotel");
  // "I'm" -> "i"+"m" dropped (stopword/short), rest stemmed+lowercased;
  // "yorkville" stems to "yorkvil" (step 5a drops e, 5b undoubles ll).
  const std::vector<std::string> expected = {"toronto", "marriott", "bloor",
                                             "yorkvil", "hotel"};
  EXPECT_EQ(terms, expected);
}

TEST(TokenizerTest, HashtagsKeepWordMentionsDropped) {
  Tokenizer tok;
  const auto terms = tok.Tokenize("#fashion #style @someone party");
  const std::vector<std::string> expected = {"fashion", "style", "parti"};
  EXPECT_EQ(terms, expected);
}

TEST(TokenizerTest, UrlsStripped) {
  Tokenizer tok;
  const auto terms = tok.Tokenize(
      "check http://t.co/abc123 great pizza https://x.y/z tonight");
  const std::vector<std::string> expected = {"check", "great", "pizza",
                                             "tonight"};
  EXPECT_EQ(terms, expected);
}

TEST(TokenizerTest, TermFrequenciesBagSemantics) {
  // §III-B example: "one spicy and two restaurant" occurrences.
  Tokenizer tok;
  const auto tf =
      tok.TermFrequencies("spicy restaurant! best restaurant ever");
  EXPECT_EQ(tf.at("restaur"), 2);
  EXPECT_EQ(tf.at("spici"), 1);
}

TEST(TokenizerTest, StopwordsRemoved) {
  Tokenizer tok;
  const auto terms = tok.Tokenize("the hotel is very good");
  const std::vector<std::string> expected = {"hotel", "good"};
  EXPECT_EQ(terms, expected);
}

TEST(TokenizerTest, OptionsCanDisableStemming) {
  TokenizerOptions opts;
  opts.stem = false;
  Tokenizer tok(opts);
  const auto terms = tok.Tokenize("amazing restaurants");
  const std::vector<std::string> expected = {"amazing", "restaurants"};
  EXPECT_EQ(terms, expected);
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  Tokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("!!! ... ###").empty());
  EXPECT_TRUE(tok.Tokenize("@@@").empty());
}

TEST(TokenizerTest, MinTokenLengthEnforced) {
  TokenizerOptions opts;
  opts.min_token_length = 4;
  Tokenizer tok(opts);
  const auto terms = tok.Tokenize("go eat great food");
  const std::vector<std::string> expected = {"great", "food"};
  EXPECT_EQ(terms, expected);
}

// ----------------------------------------------------------- vocabulary

TEST(VocabularyTest, InternAssignsStableIds) {
  Vocabulary vocab;
  const auto id1 = vocab.Add("hotel");
  const auto id2 = vocab.Add("restaurant");
  const auto id3 = vocab.Add("hotel");
  EXPECT_EQ(id1, id3);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(vocab.term(id1), "hotel");
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(VocabularyTest, FrequenciesAccumulate) {
  Vocabulary vocab;
  vocab.Add("pizza", 3);
  vocab.Add("pizza", 2);
  const auto id = vocab.Lookup("pizza");
  ASSERT_NE(id, Vocabulary::kInvalidTerm);
  EXPECT_EQ(vocab.frequency(id), 5u);
  EXPECT_EQ(vocab.total_occurrences(), 5u);
}

TEST(VocabularyTest, LookupMissing) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Lookup("nothing"), Vocabulary::kInvalidTerm);
}

TEST(VocabularyTest, TopTermsOrdering) {
  Vocabulary vocab;
  vocab.Add("cafe", 10);
  vocab.Add("game", 30);
  vocab.Add("restaurant", 40);
  vocab.Add("shop", 10);
  const auto top = vocab.TopTerms(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "restaurant");
  EXPECT_EQ(top[1].first, "game");
  EXPECT_EQ(top[2].first, "cafe");  // tie with shop broken lexicographically
}

TEST(VocabularyTest, TopTermsMoreThanSize) {
  Vocabulary vocab;
  vocab.Add("one");
  EXPECT_EQ(vocab.TopTerms(10).size(), 1u);
}

}  // namespace
}  // namespace tklus
