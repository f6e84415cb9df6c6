// Unit tests for the ontology DAG, generalization configs, Gen/Spec, and the
// Appendix-A.2 typing utility.

#include <gtest/gtest.h>

#include <sstream>

#include "core/big_index.h"
#include "graph/label_dictionary.h"
#include "ontology/config.h"
#include "ontology/ontology.h"
#include "ontology/ontology_io.h"
#include "ontology/typing.h"
#include "util/random.h"
#include "workload/datasets.h"

namespace bigindex {
namespace {

// Mirrors the paper's Fig. 2 fragment:
//   Academics -> Person, Investor -> Person (we use ids)
//   Univ -> Organization, IvyLeague -> Organization
//   Eastern -> Location, Western -> Location
struct Fixture {
  LabelDictionary dict;
  LabelId person, academics, investor, organization, univ, ivy, location,
      eastern, western;
  Ontology ont;

  Fixture() {
    person = dict.Intern("Person");
    academics = dict.Intern("Academics");
    investor = dict.Intern("Investor");
    organization = dict.Intern("Organization");
    univ = dict.Intern("Univ");
    ivy = dict.Intern("IvyLeague");
    location = dict.Intern("Location");
    eastern = dict.Intern("Eastern");
    western = dict.Intern("Western");

    OntologyBuilder b;
    b.AddSupertypeEdge(academics, person);
    b.AddSupertypeEdge(investor, person);
    b.AddSupertypeEdge(univ, organization);
    b.AddSupertypeEdge(ivy, organization);
    b.AddSupertypeEdge(eastern, location);
    b.AddSupertypeEdge(western, location);
    auto built = b.Build();
    EXPECT_TRUE(built.ok());
    ont = std::move(built).value();
  }
};

TEST(OntologyTest, DirectSupertypes) {
  Fixture f;
  auto supers = f.ont.Supertypes(f.academics);
  ASSERT_EQ(supers.size(), 1u);
  EXPECT_EQ(supers[0], f.person);
  EXPECT_TRUE(f.ont.Supertypes(f.person).empty());
  EXPECT_TRUE(f.ont.HasSupertype(f.univ));
  EXPECT_FALSE(f.ont.HasSupertype(f.location));
}

TEST(OntologyTest, DirectSubtypes) {
  Fixture f;
  auto subs = f.ont.Subtypes(f.person);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0], f.academics);
  EXPECT_EQ(subs[1], f.investor);
}

TEST(OntologyTest, IsSupertypeTransitiveAndReflexive) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A"), b = dict.Intern("B"), c = dict.Intern("C");
  OntologyBuilder builder;
  builder.AddSupertypeEdge(c, b);  // B super of C
  builder.AddSupertypeEdge(b, a);  // A super of B
  Ontology ont = std::move(builder.Build()).value();
  EXPECT_TRUE(ont.IsSupertype(a, c));  // transitive
  EXPECT_TRUE(ont.IsSupertype(b, c));
  EXPECT_TRUE(ont.IsSupertype(c, c));  // reflexive
  EXPECT_FALSE(ont.IsSupertype(c, a));
}

TEST(OntologyTest, HeightAbove) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A"), b = dict.Intern("B"), c = dict.Intern("C");
  OntologyBuilder builder;
  builder.AddSupertypeEdge(c, b);
  builder.AddSupertypeEdge(b, a);
  Ontology ont = std::move(builder.Build()).value();
  EXPECT_EQ(ont.HeightAbove(c), 2u);
  EXPECT_EQ(ont.HeightAbove(b), 1u);
  EXPECT_EQ(ont.HeightAbove(a), 0u);
}

TEST(OntologyTest, CycleRejected) {
  OntologyBuilder builder;
  builder.AddSupertypeEdge(0, 1);
  builder.AddSupertypeEdge(1, 2);
  builder.AddSupertypeEdge(2, 0);
  auto built = builder.Build();
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(OntologyTest, SelfLoopRejected) {
  OntologyBuilder builder;
  builder.AddSupertypeEdge(0, 0);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(OntologyTest, DiamondDagAccepted) {
  OntologyBuilder builder;
  builder.AddSupertypeEdge(3, 1);
  builder.AddSupertypeEdge(3, 2);
  builder.AddSupertypeEdge(1, 0);
  builder.AddSupertypeEdge(2, 0);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(built->IsSupertype(0, 3));
  EXPECT_EQ(built->NumTypes(), 4u);
  EXPECT_EQ(built->NumEdges(), 4u);
  EXPECT_EQ(built->Size(), 8u);
}

TEST(OntologyTest, EmptyOntology) {
  OntologyBuilder builder;
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->NumTypes(), 0u);
  EXPECT_TRUE(built->Supertypes(42).empty());
  EXPECT_TRUE(built->IsSupertype(3, 3));  // reflexive even without data
  EXPECT_FALSE(built->IsSupertype(3, 4));
}

// --- configurations ---

TEST(ConfigTest, AddAndGeneralize) {
  Fixture f;
  GeneralizationConfig c;
  ASSERT_TRUE(c.AddMapping(f.academics, f.person).ok());
  ASSERT_TRUE(c.AddMapping(f.investor, f.person).ok());
  EXPECT_EQ(c.Generalize(f.academics), f.person);
  EXPECT_EQ(c.Generalize(f.univ), f.univ);  // unmapped: unchanged
  EXPECT_TRUE(c.Maps(f.investor));
  EXPECT_FALSE(c.Maps(f.univ));
  EXPECT_EQ(c.size(), 2u);
}

TEST(ConfigTest, ConflictingMappingRejected) {
  GeneralizationConfig c;
  ASSERT_TRUE(c.AddMapping(1, 2).ok());
  EXPECT_FALSE(c.AddMapping(1, 3).ok());
  EXPECT_TRUE(c.AddMapping(1, 2).ok());  // same target: fine
}

TEST(ConfigTest, IdentityMappingIgnored) {
  GeneralizationConfig c;
  ASSERT_TRUE(c.AddMapping(5, 5).ok());
  EXPECT_TRUE(c.empty());
}

TEST(ConfigTest, ValidateAgainstOntology) {
  Fixture f;
  GeneralizationConfig good;
  ASSERT_TRUE(good.AddMapping(f.academics, f.person).ok());
  EXPECT_TRUE(good.Validate(f.ont).ok());

  GeneralizationConfig bad;
  ASSERT_TRUE(bad.AddMapping(f.academics, f.organization).ok());
  EXPECT_FALSE(bad.Validate(f.ont).ok());

  GeneralizationConfig skip_level;
  // Person is not a *direct* supertype of anything two levels down here, but
  // mapping univ -> person is simply not an ontology edge.
  ASSERT_TRUE(skip_level.AddMapping(f.univ, f.person).ok());
  EXPECT_FALSE(skip_level.Validate(f.ont).ok());
}

TEST(ConfigTest, PreimageAndFamilySize) {
  Fixture f;
  GeneralizationConfig c;
  ASSERT_TRUE(c.AddMapping(f.academics, f.person).ok());
  ASSERT_TRUE(c.AddMapping(f.investor, f.person).ok());
  ASSERT_TRUE(c.AddMapping(f.univ, f.organization).ok());
  auto pre = c.Preimage(f.person);
  ASSERT_EQ(pre.size(), 2u);
  EXPECT_EQ(c.FamilySize(f.academics), 2u);  // academics+investor -> person
  EXPECT_EQ(c.FamilySize(f.univ), 1u);
  EXPECT_EQ(c.FamilySize(f.western), 0u);  // unmapped
  EXPECT_TRUE(c.Preimage(f.location).empty());
}

TEST(ConfigTest, GeneralizeGraphRelabelsOnly) {
  Fixture f;
  GraphBuilder b;
  VertexId v0 = b.AddVertex(f.academics);
  VertexId v1 = b.AddVertex(f.univ);
  VertexId v2 = b.AddVertex(f.eastern);
  b.AddEdge(v0, v1);
  b.AddEdge(v1, v2);
  Graph g = std::move(b.Build()).value();

  GeneralizationConfig c;
  ASSERT_TRUE(c.AddMapping(f.academics, f.person).ok());
  ASSERT_TRUE(c.AddMapping(f.eastern, f.location).ok());
  Graph gc = Generalize(g, c);

  ASSERT_EQ(gc.NumVertices(), 3u);
  EXPECT_EQ(gc.label(v0), f.person);
  EXPECT_EQ(gc.label(v1), f.univ);  // untouched
  EXPECT_EQ(gc.label(v2), f.location);
  EXPECT_EQ(gc.Edges(), g.Edges());  // structure identical
}

TEST(ConfigTest, LabelPreservingProperty) {
  // Def 2.2: for every vertex, either its label was mapped by C or it is
  // unchanged. Holds by construction; verify on a random-ish graph.
  Fixture f;
  GraphBuilder b;
  std::vector<LabelId> labels = {f.academics, f.investor, f.univ,
                                 f.ivy,       f.eastern,  f.western};
  for (int i = 0; i < 30; ++i) b.AddVertex(labels[i % labels.size()]);
  for (int i = 0; i < 29; ++i) {
    b.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  Graph g = std::move(b.Build()).value();
  GeneralizationConfig c;
  ASSERT_TRUE(c.AddMapping(f.academics, f.person).ok());
  ASSERT_TRUE(c.AddMapping(f.univ, f.organization).ok());
  Graph gc = Generalize(g, c);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (c.Maps(g.label(v))) {
      EXPECT_EQ(gc.label(v), c.Generalize(g.label(v)));
    } else {
      EXPECT_EQ(gc.label(v), g.label(v));
    }
  }
}

// --- ontology I/O ---

TEST(OntologyIoTest, RoundTrip) {
  Fixture f;
  std::stringstream ss;
  ASSERT_TRUE(WriteOntology(f.ont, f.dict, ss).ok());
  LabelDictionary dict2;
  auto ont2 = ReadOntology(ss, dict2);
  ASSERT_TRUE(ont2.ok());
  EXPECT_EQ(ont2->NumEdges(), f.ont.NumEdges());
  EXPECT_EQ(ont2->NumTypes(), f.ont.NumTypes());
  LabelId acad2 = dict2.Find("Academics");
  LabelId person2 = dict2.Find("Person");
  ASSERT_NE(acad2, kInvalidLabel);
  EXPECT_TRUE(ont2->IsSupertype(person2, acad2));
}

TEST(OntologyIoTest, RejectsGarbage) {
  std::stringstream ss("nope\n");
  LabelDictionary dict;
  EXPECT_FALSE(ReadOntology(ss, dict).ok());
}

TEST(OntologyIoTest, RejectsMissingTab) {
  std::stringstream ss("bigindex-ontology v1\n1\nA B\n");
  LabelDictionary dict;
  auto ont = ReadOntology(ss, dict);
  EXPECT_FALSE(ont.ok());
  EXPECT_EQ(ont.status().code(), StatusCode::kCorruption);
}

TEST(OntologyIoTest, RejectsTruncation) {
  std::stringstream ss("bigindex-ontology v1\n3\nA\tB\n");
  LabelDictionary dict;
  EXPECT_FALSE(ReadOntology(ss, dict).ok());
}

// ---- Appendix A.2 typing ----

TEST(TypingTest, AttachesUntypedLabelsUnderFallback) {
  LabelDictionary dict;
  // Ontology covers labels A, B only.
  LabelId a = dict.Intern("A"), b = dict.Intern("B"),
          thing = dict.Intern("Thing");
  OntologyBuilder ob;
  ob.AddSupertypeEdge(a, thing);
  ob.AddSupertypeEdge(b, thing);
  Ontology ont = std::move(ob.Build()).value();

  // Graph uses A plus two labels the ontology does not know.
  GraphBuilder gb;
  gb.AddVertex(a);
  gb.AddVertex(dict.Intern("X"));
  gb.AddVertex(dict.Intern("Y"));
  Graph g = std::move(gb.Build()).value();

  auto typed = AttachUntypedLabels(g, ont, dict, "Entity");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->typed, 1u);     // A
  EXPECT_EQ(typed->attached, 2u);  // X, Y
  EXPECT_NEAR(typed->typed_fraction(), 1.0 / 3.0, 1e-9);
  LabelId entity = dict.Find("Entity");
  EXPECT_TRUE(typed->ontology.IsSupertype(entity, dict.Find("X")));
  EXPECT_TRUE(typed->ontology.IsSupertype(entity, dict.Find("Y")));
  // Pre-existing edges survive.
  EXPECT_TRUE(typed->ontology.IsSupertype(thing, a));
}

TEST(TypingTest, MakesArbitraryGraphsIndexable) {
  // A graph with labels entirely unknown to any ontology becomes indexable:
  // one generalization step maps everything to the fallback, and the layer
  // compresses.
  LabelDictionary dict;
  Rng rng(9);
  GraphBuilder gb;
  for (int i = 0; i < 300; ++i) {
    gb.AddVertex(dict.Intern("name_" + std::to_string(i)));  // unique labels
  }
  VertexId hub = 0;
  for (VertexId v = 1; v < 300; ++v) gb.AddEdge(v, hub);
  Graph g = std::move(gb.Build()).value();

  Ontology empty = std::move(OntologyBuilder().Build()).value();
  auto typed = AttachUntypedLabels(g, empty, dict, "Entity");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->attached, 300u);

  auto index = BigIndex::Build(g, &typed->ontology, {.max_layers = 1});
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->NumLayers(), 1u);
  // 299 identical spokes + hub collapse to a handful of supernodes.
  EXPECT_LT(index->LayerCompressionRatio(1), 0.1);
}

TEST(TypingTest, IdempotentWhenAllTyped) {
  auto ds = MakeDataset("yago3", 0.001);
  ASSERT_TRUE(ds.ok());
  auto typed = AttachUntypedLabels(ds->graph, ds->ontology.ontology,
                                   *ds->dict, "Entity");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->attached, 0u);  // generator labels are all leaf types
  EXPECT_DOUBLE_EQ(typed->typed_fraction(), 1.0);
}

}  // namespace
}  // namespace bigindex
