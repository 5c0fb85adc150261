//===- tests/css/StyleResolverParityTest.cpp - index vs naive parity ------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Randomized differential tests: the bucketed/Bloom-filtered/cached
// matcher must produce exactly the output of a reference
// O(rules x selectors) scan (naiveMatch below) on arbitrary documents
// and stylesheets, including :QoS-qualified rules, and must stay
// identical across cache-invalidating DOM mutations.
//
//===----------------------------------------------------------------------===//

#include "css/CssParser.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace greenweb;
using namespace greenweb::css;

namespace {

/// Random stylesheet over a small identifier universe so selectors and
/// elements collide often (the interesting case for an index).
std::string makeRandomSheet(Rng &R, int Rules) {
  const char *Tags[] = {"div", "span", "p"};
  std::string Src;
  for (int I = 0; I < Rules; ++I) {
    std::string Sel;
    switch (R.uniformInt(0, 6)) {
    case 0:
      Sel = formatString("%s#id-%d.cls-%d", Tags[R.uniformInt(0, 2)],
                         int(R.uniformInt(0, 19)), int(R.uniformInt(0, 6)));
      break;
    case 1:
      Sel = formatString(".cls-%d", int(R.uniformInt(0, 6)));
      break;
    case 2:
      Sel = formatString("#id-%d .cls-%d", int(R.uniformInt(0, 19)),
                         int(R.uniformInt(0, 6)));
      break;
    case 3:
      Sel = formatString("%s.cls-%d > %s", Tags[R.uniformInt(0, 2)],
                         int(R.uniformInt(0, 6)), Tags[R.uniformInt(0, 2)]);
      break;
    case 4:
      Sel = formatString("%s#id-%d", Tags[R.uniformInt(0, 2)],
                         int(R.uniformInt(0, 19)));
      break;
    case 5:
      Sel = "*";
      break;
    default:
      Sel = formatString(".cls-%d %s", int(R.uniformInt(0, 6)),
                         Tags[R.uniformInt(0, 2)]);
      break;
    }
    // A third of the rules carry GreenWeb annotations, exercising the
    // :QoS qualifier through both matchers.
    if (R.chance(0.33)) {
      Sel += ":QoS";
      Src += formatString("%s { onclick-qos: single, %s; width: %dpx; }\n",
                          Sel.c_str(), R.chance(0.5) ? "short" : "long",
                          int(R.uniformInt(1, 500)));
    } else {
      Src += formatString("%s { width: %dpx; color: c%d; }\n", Sel.c_str(),
                          int(R.uniformInt(1, 500)), int(R.uniformInt(0, 9)));
    }
  }
  return Src;
}

/// Random tree: each element picks a random existing parent, so depth
/// and fan-out vary; ids/classes draw from the sheet's universe.
std::vector<Element *> makeRandomDom(Rng &R, Document &Doc, int Count) {
  const char *Tags[] = {"div", "span", "p"};
  std::vector<Element *> Elems;
  Elems.push_back(&Doc.root());
  for (int I = 0; I < Count; ++I) {
    Element *Parent = Elems[size_t(R.uniformInt(0, int64_t(Elems.size()) - 1))];
    Element *E = Parent->createChild(Tags[R.uniformInt(0, 2)]);
    if (R.chance(0.5))
      E->setId(formatString("id-%d", int(R.uniformInt(0, 19))));
    if (R.chance(0.6))
      E->addClass(formatString("cls-%d", int(R.uniformInt(0, 6))));
    if (R.chance(0.2))
      E->addClass(formatString("cls-%d", int(R.uniformInt(0, 6))));
    if (R.chance(0.2))
      E->setStyleProperty("color", formatString("inline%d", int(I)));
    Elems.push_back(E);
  }
  return Elems;
}

/// The reference matcher: every selector of every rule is tried; a
/// rule's cascade priority comes from its most specific matching
/// selector, and matches are ordered by (specificity, source order).
std::vector<MatchedRule> naiveMatch(const Stylesheet &Sheet,
                                    const Element &E) {
  std::vector<MatchedRule> Matches;
  for (size_t Order = 0; Order < Sheet.Rules.size(); ++Order) {
    const StyleRule &Rule = Sheet.Rules[Order];
    const ComplexSelector *Best = nullptr;
    for (const ComplexSelector &Selector : Rule.Selectors)
      if (Selector.matches(E) &&
          (!Best || Best->specificity() < Selector.specificity()))
        Best = &Selector;
    if (Best)
      Matches.push_back({&Rule, Best->specificity(), Order});
  }
  std::stable_sort(Matches.begin(), Matches.end(),
                   [](const MatchedRule &A, const MatchedRule &B) {
                     if (A.Spec != B.Spec)
                       return A.Spec < B.Spec;
                     return A.Order < B.Order;
                   });
  return Matches;
}

void expectSameMatches(const std::vector<MatchedRule> &A,
                       const std::vector<MatchedRule> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Rule, B[I].Rule);
    EXPECT_EQ(A[I].Order, B[I].Order);
    EXPECT_TRUE(A[I].Spec == B[I].Spec) << "rule #" << A[I].Order;
  }
}

void expectSameQos(const std::vector<QosAnnotation> &A,
                   const std::vector<QosAnnotation> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Target, B[I].Target);
    EXPECT_EQ(A[I].EventName, B[I].EventName);
    EXPECT_EQ(A[I].Value.Kind, B[I].Value.Kind);
    EXPECT_EQ(A[I].Value.LongDuration, B[I].Value.LongDuration);
    EXPECT_EQ(A[I].Value.Ti.has_value(), B[I].Value.Ti.has_value());
    EXPECT_EQ(A[I].Value.Tu.has_value(), B[I].Value.Tu.has_value());
    if (A[I].Value.Ti && B[I].Value.Ti) {
      EXPECT_EQ(A[I].Value.Ti->micros(), B[I].Value.Ti->micros());
    }
    if (A[I].Value.Tu && B[I].Value.Tu) {
      EXPECT_EQ(A[I].Value.Tu->micros(), B[I].Value.Tu->micros());
    }
  }
}

/// Full-document parity for \p Resolver (whose cache may hold entries
/// from earlier lookups): its matches must equal the reference scan, and
/// its cascade queries must equal those of a freshly built resolver,
/// whose cold-cache matches are themselves checked against the scan.
void expectFullParity(const Stylesheet &Sheet, const StyleResolver &Resolver,
                      const std::vector<Element *> &Elems) {
  StyleResolver Fresh(Sheet);
  for (const Element *E : Elems) {
    std::vector<MatchedRule> Reference = naiveMatch(Sheet, *E);
    expectSameMatches(Fresh.matchRules(*E), Reference);
    expectSameMatches(Resolver.matchRules(*E), Reference);
    EXPECT_EQ(Resolver.computedStyle(*E), Fresh.computedStyle(*E));
    expectSameQos(Resolver.qosAnnotationsFor(*E), Fresh.qosAnnotationsFor(*E));
  }
}

class StyleResolverParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StyleResolverParity, RandomDocumentMatchesNaive) {
  Rng R(GetParam());
  Stylesheet Sheet = parseStylesheet(makeRandomSheet(R, 60));
  Document Doc;
  std::vector<Element *> Elems = makeRandomDom(R, Doc, 80);
  StyleResolver Indexed(Sheet);
  expectFullParity(Sheet, Indexed, Elems);
  // A second pass is served from the per-element cache.
  expectFullParity(Sheet, Indexed, Elems);
  EXPECT_GT(Indexed.indexStats().CacheHits, 0u);
}

TEST_P(StyleResolverParity, ParityHoldsAcrossMutationChurn) {
  Rng R(GetParam() ^ 0xD1CEu);
  Stylesheet Sheet = parseStylesheet(makeRandomSheet(R, 40));
  Document Doc;
  std::vector<Element *> Elems = makeRandomDom(R, Doc, 50);
  StyleResolver Indexed(Sheet);
  // Every parity pass leaves the per-element cache warm, and every
  // mutation must invalidate what it affects: checking after each
  // single mutation means one mutation kind that forgets to bump the
  // document's style version surfaces as a parity break instead of
  // hiding behind a later mutation's bump.
  expectFullParity(Sheet, Indexed, Elems);
  for (int M = 0; M < 50; ++M) {
    Element *E = Elems[size_t(R.uniformInt(0, int64_t(Elems.size()) - 1))];
    switch (R.uniformInt(0, 2)) {
    case 0:
      E->setId(formatString("id-%d", int(R.uniformInt(0, 19))));
      break;
    case 1:
      E->addClass(formatString("cls-%d", int(R.uniformInt(0, 6))));
      break;
    default:
      E->setStyleProperty("width",
                          formatString("%dpx", int(R.uniformInt(1, 99))));
      break;
    }
    expectFullParity(Sheet, Indexed, Elems);
  }
  EXPECT_GT(Indexed.indexStats().CacheHits, 0u);
  EXPECT_GT(Indexed.indexStats().CacheMisses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StyleResolverParity,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u));

TEST(StyleResolverParityTest, GrowingSubtreeInvalidatesCache) {
  Stylesheet Sheet = parseStylesheet(".cls-0 div { width: 10px; }\n");
  Document Doc;
  Element *Parent = Doc.root().createChild("div");
  Parent->addClass("cls-0");
  StyleResolver Resolver(Sheet);
  Element *Child = Parent->createChild("div");
  EXPECT_EQ(Resolver.matchRules(*Child).size(), 1u);
  // New subtree attached after a cached lookup must still be seen.
  Element *Late = Parent->createChild("div");
  expectSameMatches(Resolver.matchRules(*Late), naiveMatch(Sheet, *Late));
  EXPECT_EQ(Resolver.matchRules(*Late).size(), 1u);
}

} // namespace
