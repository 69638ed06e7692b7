#include <gtest/gtest.h>

#include <string>

#include "web/css.hpp"
#include "web/html.hpp"
#include "web/js.hpp"
#include "web/reference.hpp"

namespace parcel::web {
namespace {

TEST(InferType, ByExtension) {
  EXPECT_EQ(infer_type("/a/b.css", ObjectType::kImage), ObjectType::kCss);
  EXPECT_EQ(infer_type("/a/b.js", ObjectType::kImage), ObjectType::kJs);
  EXPECT_EQ(infer_type("/a/b.jpg?x=1", ObjectType::kJson), ObjectType::kImage);
  EXPECT_EQ(infer_type("/a/b.woff2", ObjectType::kImage), ObjectType::kFont);
  EXPECT_EQ(infer_type("/a/b.json", ObjectType::kImage), ObjectType::kJson);
  EXPECT_EQ(infer_type("/a/b.mp4", ObjectType::kImage), ObjectType::kMedia);
  EXPECT_EQ(infer_type("/noext", ObjectType::kJson), ObjectType::kJson);
}

TEST(MiniHtml, ExtractsReferencesInDocumentOrder) {
  const char* html = R"(
    <html><head>
      <link rel="stylesheet" href="/css/a.css">
      <script src="/js/one.js"></script>
      <script async src="http://ads.example/ad.js"></script>
    </head><body>
      <img src="/img/x.jpg">
      <video src="/v.mp4"></video>
      <script>
        compute(1.0);
      </script>
    </body></html>)";
  auto tokens = MiniHtml::scan(html);
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].ref.expected_type, ObjectType::kCss);
  EXPECT_EQ(tokens[0].ref.target, "/css/a.css");
  EXPECT_EQ(tokens[1].ref.expected_type, ObjectType::kJs);
  EXPECT_FALSE(tokens[1].ref.async);
  EXPECT_EQ(tokens[2].ref.expected_type, ObjectType::kJsAsync);
  EXPECT_TRUE(tokens[2].ref.async);
  EXPECT_EQ(tokens[3].ref.expected_type, ObjectType::kImage);
  EXPECT_EQ(tokens[4].ref.expected_type, ObjectType::kMedia);
  EXPECT_EQ(tokens[5].kind, HtmlToken::Kind::kInlineScript);
  EXPECT_NE(tokens[5].script.find("compute"), std::string::npos);
}

TEST(MiniHtml, SkipsComments) {
  auto tokens = MiniHtml::scan("<!-- <img src=\"/hidden.jpg\"> --><img src=\"/real.jpg\">");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].ref.target, "/real.jpg");
}

TEST(MiniHtml, IgnoresNonStylesheetLinks) {
  auto tokens = MiniHtml::scan("<link rel=\"icon\" href=\"/favicon.ico\">");
  EXPECT_TRUE(tokens.empty());
}

TEST(MiniHtml, AttributeExtraction) {
  EXPECT_EQ(MiniHtml::attribute("<img src=\"/a.png\">", "src"), "/a.png");
  EXPECT_EQ(MiniHtml::attribute("<img src='/a.png'>", "src"), "/a.png");
  EXPECT_EQ(MiniHtml::attribute("<img src=/a.png>", "src"), "/a.png");
  EXPECT_EQ(MiniHtml::attribute("<img alt=\"x\">", "src"), "");
}

TEST(MiniHtml, EmptyInlineScriptIgnored) {
  auto tokens = MiniHtml::scan("<script>   </script>");
  EXPECT_TRUE(tokens.empty());
}

TEST(MiniCss, UrlAndImports) {
  const char* css = R"(
    /* url("commented-out.png") */
    @import url("base.css");
    @import "reset.css";
    .a { background-image: url("/img/a.png"); }
    .b { background: url(http://cdn.example/b.jpg); }
    @font-face { src: url("f.woff2"); }
  )";
  auto refs = MiniCss::scan(css);
  ASSERT_EQ(refs.size(), 5u);
  EXPECT_EQ(refs[0].expected_type, ObjectType::kCss);
  EXPECT_EQ(refs[0].target, "base.css");
  EXPECT_EQ(refs[1].target, "reset.css");
  EXPECT_EQ(refs[2].target, "/img/a.png");
  EXPECT_EQ(refs[3].target, "http://cdn.example/b.jpg");
  EXPECT_EQ(refs[4].expected_type, ObjectType::kFont);
}

TEST(MiniCss, EmptyAndCommentOnly) {
  EXPECT_TRUE(MiniCss::scan("").empty());
  EXPECT_TRUE(MiniCss::scan("/* url(x.png) */ body{}").empty());
}

TEST(MiniJs, ComputeAccumulatesWork) {
  JsProgram prog = MiniJs::run("compute(2.5);\ncompute(1.5);\n");
  EXPECT_NEAR(prog.work_units, 4.0 + 0.02, 1e-9);
  EXPECT_TRUE(prog.references.empty());
}

TEST(MiniJs, FetchVariants) {
  JsProgram prog = MiniJs::run(
      "fetch(\"http://api.example/a.json\");\n"
      "fetchRand(\"http://api.example/b.json\");\n");
  ASSERT_EQ(prog.references.size(), 2u);
  EXPECT_FALSE(prog.references[0].randomized);
  EXPECT_TRUE(prog.references[1].randomized);
  EXPECT_EQ(prog.references[0].expected_type, ObjectType::kJson);
}

TEST(MiniJs, ScriptInjection) {
  JsProgram prog = MiniJs::run(
      "loadScript(\"/js/dep.js\");\n"
      "loadScriptAsync(\"/js/lazy.js\");\n");
  ASSERT_EQ(prog.references.size(), 2u);
  EXPECT_EQ(prog.references[0].expected_type, ObjectType::kJs);
  EXPECT_FALSE(prog.references[0].async);
  EXPECT_EQ(prog.references[1].expected_type, ObjectType::kJsAsync);
  EXPECT_TRUE(prog.references[1].async);
}

TEST(MiniJs, DocumentWriteRevealsImage) {
  JsProgram prog =
      MiniJs::run("document.write('<img src=\"/img/banner.jpg\">');\n");
  ASSERT_EQ(prog.references.size(), 1u);
  EXPECT_EQ(prog.references[0].target, "/img/banner.jpg");
  EXPECT_EQ(prog.references[0].expected_type, ObjectType::kImage);
}

TEST(MiniJs, ClickHandlers) {
  JsProgram prog = MiniJs::run(
      "onClick(0, \"/img/p0.jpg\");\n"
      "onClick(3, \"/img/p3.jpg\");\n");
  ASSERT_EQ(prog.click_handlers.size(), 2u);
  EXPECT_EQ(prog.click_handlers[1].click_index, 3);
  EXPECT_EQ(prog.click_handlers[1].target, "/img/p3.jpg");
}

TEST(MiniJs, CommentsAndPaddingAreFree) {
  JsProgram prog = MiniJs::run("// just a comment line\n\n");
  EXPECT_DOUBLE_EQ(prog.work_units, 0.0);
}

TEST(MiniJs, GenericStatementsCostALittle) {
  JsProgram prog = MiniJs::run("var x = 1;\nvar y = 2;\n");
  EXPECT_NEAR(prog.work_units, 0.02, 1e-9);
}

// ---- Edge-case pins. These nail down today's scanner behavior so the
// zero-copy rewrite is checkably behavior-preserving. ----

TEST(MiniHtml, UnterminatedInlineScriptYieldsNothing) {
  // No </script>: the body runs to EOF and is treated as absent.
  auto tokens = MiniHtml::scan("<p>x</p><script>var x = 1;");
  EXPECT_TRUE(tokens.empty());
}

TEST(MiniHtml, UnterminatedSrcScriptStillEmitsReference) {
  // The src reference comes from the open tag; the missing close tag only
  // swallows the rest of the document.
  auto tokens = MiniHtml::scan(
      "<script src=\"/a.js\">compute(1);<img src=\"/late.jpg\">");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].ref.target, "/a.js");
  EXPECT_EQ(tokens[0].ref.expected_type, ObjectType::kJs);
}

TEST(MiniHtml, UppercaseTagsAndAttributes) {
  auto tokens = MiniHtml::scan(
      "<LINK REL=\"STYLESHEET\" HREF=\"/A.CSS\">"
      "<SCRIPT SRC=\"/A.JS\"></SCRIPT>"
      "<IMG SRC=\"/A.JPG\">");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].ref.expected_type, ObjectType::kCss);
  EXPECT_EQ(tokens[0].ref.target, "/A.CSS");
  EXPECT_EQ(tokens[1].ref.expected_type, ObjectType::kJs);
  EXPECT_EQ(tokens[1].ref.target, "/A.JS");
  EXPECT_EQ(tokens[2].ref.target, "/A.JPG");
}

TEST(MiniHtml, UppercaseCloseTagEndsInlineScript) {
  auto tokens = MiniHtml::scan("<script>compute(2);</SCRIPT><img src=/x.jpg>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, HtmlToken::Kind::kInlineScript);
  EXPECT_EQ(tokens[1].ref.target, "/x.jpg");
}

TEST(MiniHtml, UnquotedAndValuelessAttributes) {
  auto tokens = MiniHtml::scan(
      "<script src=/sync.js defer></script>"
      "<script async src=/lazy.js></script>"
      "<img src=/pic.png>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].ref.target, "/sync.js");
  EXPECT_TRUE(tokens[0].ref.async);  // valueless defer counts as async
  EXPECT_EQ(tokens[0].ref.expected_type, ObjectType::kJsAsync);
  EXPECT_TRUE(tokens[1].ref.async);
  EXPECT_EQ(tokens[2].ref.target, "/pic.png");
}

TEST(MiniHtml, PrefixedAttributeNamesDoNotMatch) {
  // data-src= must not satisfy a src= lookup (left boundary check).
  EXPECT_EQ(MiniHtml::attribute("<img data-src=\"/lazy.png\">", "src"), "");
  auto tokens = MiniHtml::scan("<img data-src=\"/lazy.png\">");
  EXPECT_TRUE(tokens.empty());
}

TEST(MiniHtml, CommentWrappingScriptAndLink) {
  auto tokens = MiniHtml::scan(
      "<!-- <script src=\"/dead.js\"></script>\n"
      "     <link rel=\"stylesheet\" href=\"/dead.css\"> -->"
      "<script src=\"/live.js\"></script>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].ref.target, "/live.js");
}

TEST(MiniHtml, UnterminatedCommentSwallowsRest) {
  auto tokens = MiniHtml::scan("<img src=/a.jpg><!-- <img src=/b.jpg>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].ref.target, "/a.jpg");
}

TEST(MiniCss, UppercaseTokensMatch) {
  auto refs = MiniCss::scan("@IMPORT URL(\"A.CSS\");\n.x { background: URL(/B.PNG); }");
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].target, "A.CSS");
  EXPECT_EQ(refs[0].expected_type, ObjectType::kCss);
  EXPECT_EQ(refs[1].target, "/B.PNG");
}

TEST(MiniCss, UnterminatedCommentBlanksToEnd) {
  EXPECT_TRUE(MiniCss::scan("/* url(x.png) body { background: url(y.png); }")
                  .empty());
}

TEST(MiniCss, UnterminatedConstructsYieldNothingFurther) {
  // @import without its semicolon ends the scan; url( without a close
  // paren likewise.
  EXPECT_TRUE(MiniCss::scan("@import \"a.css\"").empty());
  EXPECT_TRUE(MiniCss::scan("body { background: url(/a.png }").empty());
  auto refs = MiniCss::scan(".a{background:url(/ok.png)} @import \"late.css\"");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].target, "/ok.png");
}

TEST(MiniCss, CommentBetweenDeclarationsWrapsReference) {
  auto refs = MiniCss::scan(
      ".a { background: url(/keep.png); }\n"
      "/* .b { background: url(/drop.png); } */\n"
      ".c { background: url(/also.png); }");
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].target, "/keep.png");
  EXPECT_EQ(refs[1].target, "/also.png");
}

TEST(MiniCss, InterleavedImportsAndUrlsKeepDocumentOrder) {
  // Each url( before the next @import, an @import url(...) whose url( lies
  // past a plain url(, and a trailing @import.
  auto refs = MiniCss::scan(
      "@import \"a.css\"; .x{background:url(b.png)}\n"
      "@import url('c.css'); .y{background:URL(\"d.gif\")}\n"
      "@IMPORT \"e.css\";");
  ASSERT_EQ(refs.size(), 5u);
  const char* targets[] = {"a.css", "b.png", "c.css", "d.gif", "e.css"};
  const ObjectType types[] = {ObjectType::kCss, ObjectType::kImage,
                              ObjectType::kCss, ObjectType::kImage,
                              ObjectType::kCss};
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i].target, targets[i]) << i;
    EXPECT_EQ(refs[i].expected_type, types[i]) << i;
  }
}

TEST(MiniCss, UrlAndSemicolonInsideCommentsAreBlank) {
  // A comment hides url( and @import; a ';' in a comment does not end an
  // @import clause; a ')' in a comment does not close a url(. Targets are
  // the raw text's bytes, so a comment inside one survives in the view.
  const std::string css =
      ".a{background:url(/a.png)} /* url(/hidden.png); @import \"no.css\"; */"
      " @import /* ; */ \"yes.css\";"
      " .b{background:url(/b.png /* ) */)}"
      " .c{background:Url(/c/*x*/.png)}";
  auto refs = MiniCss::scan(css);
  ASSERT_EQ(refs.size(), 4u);
  EXPECT_EQ(refs[0].target, "/a.png");
  EXPECT_EQ(refs[1].target, "yes.css");
  EXPECT_EQ(refs[1].expected_type, ObjectType::kCss);
  EXPECT_EQ(refs[2].target, "/b.png");
  EXPECT_EQ(refs[3].target, "/c/*x*/.png");
  for (const Reference& r : refs) {
    EXPECT_GE(r.target.data(), css.data());
    EXPECT_LE(r.target.data() + r.target.size(), css.data() + css.size());
  }
}

TEST(MiniCss, UnterminatedCommentHidesLaterClauses) {
  auto refs = MiniCss::scan(".a{background:url(/a.png)} /* url(/b.png);");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].target, "/a.png");
  // The only ';' sits in the open comment, so the @import never closes.
  EXPECT_TRUE(MiniCss::scan("@import \"x.css\" /* ; url(/y.png)").empty());
}

TEST(MiniCss, ManyUrlsWithoutImportAllFoundInOrder) {
  // The shape that made re-searching @import from every url( quadratic.
  std::string css;
  for (int i = 0; i < 3000; ++i) {
    css += ".r" + std::to_string(i) + "{background:url(/i/" +
           std::to_string(i) + ".png)}\n";
  }
  auto refs = MiniCss::scan(css);
  ASSERT_EQ(refs.size(), 3000u);
  EXPECT_EQ(refs.front().target, "/i/0.png");
  EXPECT_EQ(refs[1234].target, "/i/1234.png");
  EXPECT_EQ(refs.back().target, "/i/2999.png");
}

TEST(MiniJs, LineEndingsAndEmptyInput) {
  JsProgram empty = MiniJs::run("");
  EXPECT_DOUBLE_EQ(empty.work_units, 0.0);
  EXPECT_TRUE(empty.references.empty());
  EXPECT_DOUBLE_EQ(MiniJs::run("\n").work_units, 0.0);
  EXPECT_DOUBLE_EQ(MiniJs::run("\r\n  \r\n").work_units, 0.0);

  const std::string body = "compute(1.5);\nfetch(\"/a.json\");\nvar z;";
  for (const std::string& code :
       {body, body + "\n", std::string("compute(1.5);\r\nfetch(\"/a.json\");"
                            "\r\nvar z;\r\n")}) {
    JsProgram prog = MiniJs::run(code);
    EXPECT_NEAR(prog.work_units, 1.5 + 0.03, 1e-9) << code;
    ASSERT_EQ(prog.references.size(), 1u) << code;
    EXPECT_EQ(prog.references[0].target, "/a.json");
  }
  // The last line counts even without a newline after it.
  EXPECT_THROW(MiniJs::run("var x;\nexplode"), std::invalid_argument);
  JsProgram last = MiniJs::run("var x;\nloadScript(\"/tail.js\")");
  ASSERT_EQ(last.references.size(), 1u);
  EXPECT_EQ(last.references[0].target, "/tail.js");
}

TEST(MiniJs, MalformedStatementsThrow) {
  EXPECT_THROW(MiniJs::run("fetch();"), std::invalid_argument);
  EXPECT_THROW(MiniJs::run("compute(abc);"), std::invalid_argument);
  EXPECT_THROW(MiniJs::run("explode everything"), std::invalid_argument);
  EXPECT_THROW(MiniJs::run("onClick(1);"), std::invalid_argument);
}

}  // namespace
}  // namespace parcel::web
