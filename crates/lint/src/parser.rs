//! A lightweight recursive-descent **item** parser over the token stream.
//!
//! The token-level rules in [`crate::rules`] see a flat token sequence;
//! the structural analyses in [`crate::structure`] need to know *what the
//! items are*: their kind, name, visibility, attributes, and nesting. This
//! module parses exactly that — item **headers** plus the `mod`/`impl`
//! nesting structure — and deliberately nothing more. Function bodies,
//! expressions, patterns, and types are skipped as balanced token blobs;
//! the compiler, not the linter, owns full syntax.
//!
//! Handled surface (the shapes that actually occur in this workspace plus
//! the classic traps):
//!
//! * `#!`-shebang lines and `#![…]` inner attributes (skipped),
//! * outer attributes, with `#[cfg(test)]` / `#[test]` / `#[bench]`
//!   detection (`#[cfg(not(test))]` does **not** count as test-gated) and
//!   `#[macro_export]` tracking,
//! * visibility: `pub`, `pub(crate)`, `pub(super)` / `pub(self)` /
//!   `pub(in …)`,
//! * `mod` (inline and out-of-line), `use`, `extern crate`,
//! * `fn` with modifiers (`const`/`async`/`unsafe`/`extern "C"`),
//!   generics, where-clauses,
//! * `struct` (unit/tuple/braced), `enum`, `union`, `trait`, `type`,
//!   `const`, `static`,
//! * `impl Type { … }` and `impl Trait for Type { … }` with member items,
//! * `macro_rules!` definitions and item-position macro invocations.
//!
//! Generics are skipped with angle-depth tracking; because the
//! [`lexer`](crate::lexer) emits one token per punctuation byte, a closing
//! `>>` in `Vec<Vec<u64>>` is already two `>` tokens, so no dedicated
//! `>>`-splitting state is needed — the depth counter simply decrements
//! twice. The `>` of `->` and `=>` never closes an angle bracket (the
//! previous token is checked), and `{ … }` / `( … )` regions inside
//! generics are skipped balanced so const-generic default expressions
//! cannot desynchronize the depth.
//!
//! The parser never fails: unrecognized constructs become
//! [`ItemKind::Unknown`] and are skipped to the next item boundary, so a
//! file the parser only partially understands still yields every item it
//! does understand.

use crate::lexer::{Token, TokenKind};

/// Item visibility, as written at the definition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// No `pub` at all.
    Private,
    /// `pub(crate)`.
    Crate,
    /// `pub(super)`, `pub(self)`, or `pub(in …)`.
    Restricted,
    /// Plain `pub`.
    Public,
}

/// What sort of item a parsed node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name;` or `mod name { … }`.
    Mod,
    /// `extern crate name;`.
    ExternCrate,
    /// `use path::to::{Thing};`.
    Use,
    /// `fn name(…) { … }` (with any modifier prefix).
    Fn,
    /// `struct Name …`.
    Struct,
    /// `enum Name { … }`.
    Enum,
    /// `union Name { … }`.
    Union,
    /// `trait Name { … }`.
    Trait,
    /// `type Name = …;`.
    TypeAlias,
    /// `const NAME: … = …;`.
    Const,
    /// `static NAME: … = …;`.
    Static,
    /// `impl Type { … }` or `impl Trait for Type { … }`.
    Impl,
    /// `macro_rules! name { … }`.
    MacroRules,
    /// An item-position macro invocation (`proptest! { … }`).
    MacroCall,
    /// Anything the parser skipped over without understanding.
    Unknown,
}

impl ItemKind {
    /// The keyword used for this kind in API-snapshot lines.
    pub fn word(self) -> &'static str {
        match self {
            ItemKind::Mod => "mod",
            ItemKind::ExternCrate => "extern-crate",
            ItemKind::Use => "use",
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Union => "union",
            ItemKind::Trait => "trait",
            ItemKind::TypeAlias => "type",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::Impl => "impl",
            ItemKind::MacroRules => "macro",
            ItemKind::MacroCall => "macro-call",
            ItemKind::Unknown => "unknown",
        }
    }
}

/// One parsed item: header facts plus children for `mod` and `impl`
/// bodies.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item kind.
    pub kind: ItemKind,
    /// The declared name (`r#` prefixes stripped); `None` for `impl`
    /// blocks, `use` items, and unrecognized constructs.
    pub name: Option<String>,
    /// Visibility as written.
    pub vis: Visibility,
    /// Whether the item is gated behind `#[cfg(test)]` / `#[test]` /
    /// `#[bench]` (directly — inherited gating is the *caller's* job via
    /// the parent item).
    pub cfg_test: bool,
    /// Whether the item carries any `#[cfg(…)]` attribute at all.
    pub cfg_gated: bool,
    /// Whether the item carries `#[macro_export]`.
    pub macro_export: bool,
    /// 1-based line of the item's first token **including attributes** —
    /// the line a suppression directive placed above the item targets.
    pub line: u32,
    /// 1-based line of the visibility/keyword token itself.
    pub decl_line: u32,
    /// For [`ItemKind::Impl`]: whether this is a trait impl
    /// (`impl Trait for Type`).
    pub trait_impl: bool,
    /// For [`ItemKind::Impl`]: the base name of the self type (`Foo` for
    /// `impl<T> crate::x::Foo<T> where …`).
    pub impl_target: Option<String>,
    /// For [`ItemKind::Use`]: the normalized path text
    /// (`crate::point::{encode_point, decode_point}`).
    pub use_path: Option<String>,
    /// Identifiers of the item's public signature: a `fn`'s generics,
    /// parameters, return type and where-clause; the plain-`pub` fields
    /// of a `struct`/`union`; an `enum`'s variants; a `trait`'s header and
    /// member declarations (default bodies excluded); a `type` alias's
    /// definition; a `const`/`static`'s type. Empty for other kinds.
    pub signature: Vec<String>,
    /// Members of `mod { … }` and `impl { … }` bodies.
    pub children: Vec<Item>,
}

impl Item {
    fn new(kind: ItemKind, line: u32, decl_line: u32) -> Self {
        Item {
            kind,
            name: None,
            vis: Visibility::Private,
            cfg_test: false,
            cfg_gated: false,
            macro_export: false,
            line,
            decl_line,
            trait_impl: false,
            impl_target: None,
            use_path: None,
            signature: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// Parse the items of one source file. `tokens` must be the token stream
/// [`lex`](crate::lexer::lex) produced for `src` (comments are already
/// absent from it). Never fails; see the module docs for the recovery
/// strategy.
pub fn parse_items(src: &str, tokens: &[Token]) -> Vec<Item> {
    let mut p = Parser {
        src,
        toks: tokens,
        i: 0,
    };
    // A shebang is `#!` at byte 0 *not* followed by `[` (that would be an
    // inner attribute). The lexer tokenizes the line as noise; skip it.
    if p.is_punct(0, '#')
        && p.is_punct(1, '!')
        && !p.is_punct(2, '[')
        && tokens.first().is_some_and(|t| t.line == 1 && t.col == 1)
    {
        while p.toks.get(p.i).is_some_and(|t| t.line == 1) {
            p.i += 1;
        }
    }
    p.parse_block(false)
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    i: usize,
}

impl<'a> Parser<'a> {
    fn eof(&self) -> bool {
        self.i >= self.toks.len()
    }

    fn text(&self, at: usize) -> &'a str {
        self.toks.get(at).map_or("", |t| t.text(self.src))
    }

    fn is_ident(&self, at: usize, name: &str) -> bool {
        self.toks.get(at).is_some_and(|t| {
            t.kind == TokenKind::Ident && {
                let text = t.text(self.src);
                text == name || text.strip_prefix("r#") == Some(name)
            }
        })
    }

    fn is_any_ident(&self, at: usize) -> bool {
        self.toks
            .get(at)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn is_punct(&self, at: usize, c: char) -> bool {
        self.toks.get(at).is_some_and(|t| t.is_punct(self.src, c))
    }

    fn line(&self, at: usize) -> u32 {
        self.toks.get(at).map_or(0, |t| t.line)
    }

    /// Consume an identifier and return it with any `r#` prefix stripped.
    fn take_name(&mut self) -> Option<String> {
        if self.is_any_ident(self.i) {
            let t = self.text(self.i);
            self.i += 1;
            Some(t.strip_prefix("r#").unwrap_or(t).to_string())
        } else {
            None
        }
    }

    /// With the cursor on `open`, consume through the matching `close`.
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0usize;
        while !self.eof() {
            if self.is_punct(self.i, open) {
                depth += 1;
            } else if self.is_punct(self.i, close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// With the cursor on `<`, consume through the matching `>`. `{…}` and
    /// `(…)` regions inside are skipped balanced (const-generic defaults,
    /// `Fn(…)` bounds), and a `>` preceded by `-` or `=` (`->`, `=>`)
    /// never closes. A `>>` close is two `>` tokens, so it simply
    /// decrements twice.
    fn skip_generics(&mut self) {
        let mut depth = 0usize;
        while !self.eof() {
            if self.is_punct(self.i, '{') {
                self.skip_balanced('{', '}');
                continue;
            }
            if self.is_punct(self.i, '(') {
                self.skip_balanced('(', ')');
                continue;
            }
            if self.is_punct(self.i, '<') {
                depth += 1;
            } else if self.is_punct(self.i, '>')
                && !(self.i > 0
                    && (self.is_punct(self.i - 1, '-') || self.is_punct(self.i - 1, '=')))
            {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Consume the rest of a `fn`/`struct`/`enum`/`union`/`trait` item
    /// after its name and generics: through the where-clause to either a
    /// terminating `;` or a balanced `{ … }` body. Returns the index of
    /// that `;` or body `{`.
    fn skip_to_body_or_semi(&mut self) -> usize {
        let mut angle = 0usize;
        let mut paren = 0usize;
        while !self.eof() {
            if self.is_punct(self.i, '(') || self.is_punct(self.i, '[') {
                paren += 1;
            } else if self.is_punct(self.i, ')') || self.is_punct(self.i, ']') {
                paren = paren.saturating_sub(1);
            } else if self.is_punct(self.i, '<') {
                angle += 1;
            } else if self.is_punct(self.i, '>')
                && !(self.i > 0
                    && (self.is_punct(self.i - 1, '-') || self.is_punct(self.i - 1, '=')))
            {
                angle = angle.saturating_sub(1);
            } else if self.is_punct(self.i, '{') {
                if angle == 0 && paren == 0 {
                    let end = self.i;
                    self.skip_balanced('{', '}');
                    return end;
                }
                // Const-generic expression inside a type: skip balanced.
                self.skip_balanced('{', '}');
                continue;
            } else if self.is_punct(self.i, ';') && angle == 0 && paren == 0 {
                self.i += 1;
                return self.i - 1;
            }
            self.i += 1;
        }
        self.i
    }

    /// Consume through the next `;` at brace/paren/bracket depth 0 — the
    /// terminator of `use`/`type`/`const`/`static`/`extern crate` items,
    /// whose initializer expressions may contain `;` inside blocks.
    fn skip_to_semi(&mut self) {
        let mut depth = 0usize;
        while !self.eof() {
            if self.is_punct(self.i, '{')
                || self.is_punct(self.i, '(')
                || self.is_punct(self.i, '[')
            {
                depth += 1;
            } else if self.is_punct(self.i, '}')
                || self.is_punct(self.i, ')')
                || self.is_punct(self.i, ']')
            {
                depth = depth.saturating_sub(1);
            } else if self.is_punct(self.i, ';') && depth == 0 {
                self.i += 1;
                return;
            }
            self.i += 1;
        }
    }

    /// Render `toks[from..to]` as compact text: no spaces except between
    /// two word-like tokens (`impl Display for Foo`, `Vec<Vec<u64>>`).
    fn normalize(&self, from: usize, to: usize) -> String {
        let mut out = String::new();
        let mut prev_wordy = false;
        for at in from..to.min(self.toks.len()) {
            let t = &self.toks[at];
            let wordy = !matches!(t.kind, TokenKind::Punct);
            if prev_wordy && wordy {
                out.push(' ');
            }
            out.push_str(t.text(self.src));
            prev_wordy = wordy;
        }
        out
    }

    /// Parse items until EOF (`until_brace == false`) or an unmatched `}`
    /// (`until_brace == true`, which consumes the `}`).
    fn parse_block(&mut self, until_brace: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while !self.eof() {
            if self.is_punct(self.i, '}') {
                if until_brace {
                    self.i += 1;
                    return items;
                }
                // Stray close brace at top level: skip it and continue.
                self.i += 1;
                continue;
            }
            // Inner attributes `#![…]` attach to the enclosing scope.
            if self.is_punct(self.i, '#')
                && self.is_punct(self.i + 1, '!')
                && self.is_punct(self.i + 2, '[')
            {
                self.i += 2;
                self.skip_balanced('[', ']');
                continue;
            }
            let before = self.i;
            items.push(self.parse_item());
            if self.i == before {
                // Absolute progress guarantee.
                self.i += 1;
            }
        }
        items
    }

    /// Scan one outer attribute (cursor on `#`), returning its collected
    /// identifier list.
    fn scan_attr(&mut self) -> Vec<String> {
        self.i += 1; // '#'
        let mut idents = Vec::new();
        if !self.is_punct(self.i, '[') {
            return idents;
        }
        let mut depth = 0usize;
        while !self.eof() {
            if self.is_punct(self.i, '[') {
                depth += 1;
            } else if self.is_punct(self.i, ']') {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return idents;
                }
            } else if self.is_any_ident(self.i) {
                idents.push(self.text(self.i).to_string());
            }
            self.i += 1;
        }
        idents
    }

    fn parse_item(&mut self) -> Item {
        let first_line = self.line(self.i);
        let mut cfg_test = false;
        let mut cfg_gated = false;
        let mut macro_export = false;
        // Outer attributes.
        while self.is_punct(self.i, '#') && self.is_punct(self.i + 1, '[') {
            let idents = self.scan_attr();
            match idents.first().map(String::as_str) {
                Some("cfg") => {
                    cfg_gated = true;
                    if idents.iter().any(|x| x == "test") && !idents.iter().any(|x| x == "not") {
                        cfg_test = true;
                    }
                }
                Some("test") | Some("bench") => cfg_test = true,
                Some("macro_export") => macro_export = true,
                _ => {}
            }
        }
        let decl_line = self.line(self.i);
        // Visibility.
        let mut vis = Visibility::Private;
        if self.is_ident(self.i, "pub") {
            self.i += 1;
            vis = Visibility::Public;
            if self.is_punct(self.i, '(') {
                let start = self.i;
                self.skip_balanced('(', ')');
                let inner = self.normalize(start + 1, self.i - 1);
                vis = if inner == "crate" {
                    Visibility::Crate
                } else {
                    Visibility::Restricted
                };
            }
        }
        // Modifier prefix before `fn` (and `unsafe` before `impl`/`trait`).
        loop {
            if (self.is_ident(self.i, "const")
                && (self.is_ident(self.i + 1, "fn")
                    || self.is_ident(self.i + 1, "unsafe")
                    || self.is_ident(self.i + 1, "async")
                    || self.is_ident(self.i + 1, "extern")))
                || self.is_ident(self.i, "async")
                || (self.is_ident(self.i, "unsafe") && !self.is_punct(self.i + 1, '{'))
                || (self.is_ident(self.i, "default") && self.is_ident(self.i + 1, "fn"))
            {
                self.i += 1;
                continue;
            }
            // `extern "C" fn` — but leave `extern crate` / `extern { }`
            // for the dispatch below.
            if self.is_ident(self.i, "extern")
                && (self.is_ident(self.i + 1, "fn")
                    || (self
                        .toks
                        .get(self.i + 1)
                        .is_some_and(|t| t.kind == TokenKind::Literal)
                        && self.is_ident(self.i + 2, "fn")))
            {
                self.i += 1;
                if !self.is_ident(self.i, "fn") {
                    self.i += 1; // ABI literal
                }
                continue;
            }
            break;
        }

        let mut item = Item::new(ItemKind::Unknown, first_line, decl_line);
        item.vis = vis;
        item.cfg_test = cfg_test;
        item.cfg_gated = cfg_gated;
        item.macro_export = macro_export;

        if self.is_ident(self.i, "mod") && self.is_any_ident(self.i + 1) {
            self.i += 1;
            item.kind = ItemKind::Mod;
            item.name = self.take_name();
            if self.is_punct(self.i, ';') {
                self.i += 1;
            } else if self.is_punct(self.i, '{') {
                self.i += 1;
                item.children = self.parse_block(true);
            }
        } else if self.is_ident(self.i, "extern") && self.is_ident(self.i + 1, "crate") {
            self.i += 2;
            item.kind = ItemKind::ExternCrate;
            item.name = self.take_name();
            self.skip_to_semi();
        } else if self.is_ident(self.i, "extern")
            && (self.is_punct(self.i + 1, '{')
                || (self
                    .toks
                    .get(self.i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Literal)
                    && self.is_punct(self.i + 2, '{')))
        {
            item.kind = ItemKind::Unknown;
            while !self.eof() && !self.is_punct(self.i, '{') {
                self.i += 1;
            }
            self.skip_balanced('{', '}');
        } else if self.is_ident(self.i, "use") {
            self.i += 1;
            item.kind = ItemKind::Use;
            let start = self.i;
            self.skip_to_semi();
            item.use_path = Some(self.normalize(start, self.i.saturating_sub(1)));
        } else if self.is_ident(self.i, "fn") {
            self.i += 1;
            item.kind = ItemKind::Fn;
            item.name = self.take_name();
            let from = self.i;
            if self.is_punct(self.i, '<') {
                self.skip_generics();
            }
            let to = self.skip_to_body_or_semi();
            item.signature = self.signature(item.kind, from, to);
        } else if self.is_ident(self.i, "struct")
            || self.is_ident(self.i, "enum")
            || self.is_ident(self.i, "union")
            || self.is_ident(self.i, "trait")
        {
            item.kind = match self.text(self.i) {
                "struct" => ItemKind::Struct,
                "enum" => ItemKind::Enum,
                "union" => ItemKind::Union,
                _ => ItemKind::Trait,
            };
            self.i += 1;
            item.name = self.take_name();
            let from = self.i;
            if self.is_punct(self.i, '<') {
                self.skip_generics();
            }
            self.skip_to_body_or_semi();
            item.signature = self.signature(item.kind, from, self.i);
        } else if self.is_ident(self.i, "type") && self.is_any_ident(self.i + 1) {
            self.i += 1;
            item.kind = ItemKind::TypeAlias;
            item.name = self.take_name();
            let from = self.i;
            self.skip_to_semi();
            item.signature = self.signature(item.kind, from, self.i);
        } else if (self.is_ident(self.i, "const") || self.is_ident(self.i, "static"))
            && (self.is_any_ident(self.i + 1)
                || (self.is_ident(self.i + 1, "mut") && self.is_any_ident(self.i + 2)))
        {
            item.kind = if self.is_ident(self.i, "const") {
                ItemKind::Const
            } else {
                ItemKind::Static
            };
            self.i += 1;
            if self.is_ident(self.i, "mut") {
                self.i += 1;
            }
            item.name = self.take_name();
            let from = self.i;
            self.skip_to_semi();
            item.signature = self.signature(item.kind, from, self.i);
        } else if self.is_ident(self.i, "impl") {
            self.i += 1;
            item.kind = ItemKind::Impl;
            if self.is_punct(self.i, '<') {
                self.skip_generics();
            }
            let start = self.i;
            // Scan the header to its body `{`, tracking angle depth and
            // spotting a depth-0 `for` (trait impl marker).
            let mut angle = 0usize;
            let mut for_at: Option<usize> = None;
            while !self.eof() {
                if self.is_punct(self.i, '{') && angle == 0 {
                    break;
                }
                if self.is_punct(self.i, '<') {
                    angle += 1;
                } else if self.is_punct(self.i, '>')
                    && !(self.i > 0
                        && (self.is_punct(self.i - 1, '-') || self.is_punct(self.i - 1, '=')))
                {
                    angle = angle.saturating_sub(1);
                } else if self.is_ident(self.i, "for") && angle == 0 && for_at.is_none() {
                    for_at = Some(self.i);
                }
                self.i += 1;
            }
            let header_end = self.i;
            item.trait_impl = for_at.is_some();
            let target_from = for_at.map_or(start, |f| f + 1);
            item.impl_target = impl_base_name(self, target_from, header_end);
            if self.is_punct(self.i, '{') {
                self.i += 1;
                item.children = self.parse_block(true);
            }
        } else if self.is_ident(self.i, "macro_rules") && self.is_punct(self.i + 1, '!') {
            self.i += 2;
            item.kind = ItemKind::MacroRules;
            item.name = self.take_name();
            if self.is_punct(self.i, '{') {
                self.skip_balanced('{', '}');
            } else if self.is_punct(self.i, '(') {
                self.skip_balanced('(', ')');
                if self.is_punct(self.i, ';') {
                    self.i += 1;
                }
            } else if self.is_punct(self.i, '[') {
                self.skip_balanced('[', ']');
                if self.is_punct(self.i, ';') {
                    self.i += 1;
                }
            }
        } else if self.is_any_ident(self.i)
            && (self.is_punct(self.i + 1, '!')
                || (self.is_path_seg(self.i + 1) && self.macro_path_bang(self.i)))
        {
            // Item-position macro invocation: `name! { … }`,
            // `path::to::name! { … }`.
            item.kind = ItemKind::MacroCall;
            while !self.eof() && !self.is_punct(self.i, '!') {
                self.i += 1;
            }
            item.name = Some(self.text(self.i.saturating_sub(1)).to_string());
            self.i += 1; // '!'
            if self.is_punct(self.i, '{') {
                self.skip_balanced('{', '}');
            } else if self.is_punct(self.i, '(') {
                self.skip_balanced('(', ')');
                if self.is_punct(self.i, ';') {
                    self.i += 1;
                }
            } else if self.is_punct(self.i, '[') {
                self.skip_balanced('[', ']');
                if self.is_punct(self.i, ';') {
                    self.i += 1;
                }
            }
        } else {
            // Unknown construct: skip to the next item boundary.
            while !self.eof() {
                if self.is_punct(self.i, ';') {
                    self.i += 1;
                    break;
                }
                if self.is_punct(self.i, '{') {
                    self.skip_balanced('{', '}');
                    break;
                }
                if self.is_punct(self.i, '}') {
                    break;
                }
                self.i += 1;
            }
        }
        item
    }

    /// The [`Item::signature`] identifiers among `toks[from..to]`, the
    /// tokens after an item's name. Struct and union fields are kept
    /// only when plain `pub`; trait default bodies and a `const`/`static`
    /// initializer are dropped.
    fn signature(&self, kind: ItemKind, from: usize, to: usize) -> Vec<String> {
        let mut out = Vec::new();
        let (mut braces, mut parens, mut angle) = (0usize, 0usize, 0usize);
        // Inside the field list: whether the current field is plain `pub`.
        let mut pub_field = false;
        for at in from..to.min(self.toks.len()) {
            let depth = braces + parens;
            if self.is_punct(at, '{') || self.is_punct(at, '(') || self.is_punct(at, '[') {
                if self.is_punct(at, '{') {
                    braces += 1;
                } else {
                    parens += 1;
                }
                pub_field &= depth > 0;
            } else if self.is_punct(at, '}') {
                braces = braces.saturating_sub(1);
            } else if self.is_punct(at, ')') || self.is_punct(at, ']') {
                parens = parens.saturating_sub(1);
            } else if self.is_punct(at, '<') {
                angle += 1;
            } else if self.is_punct(at, '>')
                && !(at > 0 && (self.is_punct(at - 1, '-') || self.is_punct(at - 1, '=')))
            {
                angle = angle.saturating_sub(1);
            } else if self.is_punct(at, ',') && depth == 1 && angle == 0 {
                pub_field = false;
            } else if self.is_punct(at, '=')
                && depth == 0
                && matches!(kind, ItemKind::Const | ItemKind::Static)
            {
                break;
            } else if self.is_any_ident(at) {
                if depth == 1 && self.is_ident(at, "pub") && !self.is_punct(at + 1, '(') {
                    pub_field = true;
                }
                let keep = match kind {
                    ItemKind::Struct | ItemKind::Union => depth == 0 || pub_field,
                    ItemKind::Trait => braces <= 1,
                    _ => true,
                };
                if keep {
                    let t = self.text(at);
                    out.push(t.strip_prefix("r#").unwrap_or(t).to_string());
                }
            }
        }
        out
    }

    /// Whether tokens `at, at+1` spell `::`.
    fn is_path_seg(&self, at: usize) -> bool {
        self.is_punct(at, ':') && self.is_punct(at + 1, ':')
    }

    /// Whether an ident at `at` heads a `path::to::macro!` chain.
    fn macro_path_bang(&self, at: usize) -> bool {
        let mut j = at;
        while self.is_any_ident(j) && self.is_path_seg(j + 1) {
            j += 3;
        }
        self.is_any_ident(j) && self.is_punct(j + 1, '!')
    }
}

/// The base name of an impl self type: the last depth-0 identifier before
/// the body / a depth-0 `where` (`crate::maxmin::Foo<T> where …` → `Foo`).
fn impl_base_name(p: &Parser<'_>, from: usize, to: usize) -> Option<String> {
    let mut angle = 0usize;
    let mut base: Option<String> = None;
    for at in from..to.min(p.toks.len()) {
        if p.is_punct(at, '<') {
            angle += 1;
        } else if p.is_punct(at, '>')
            && !(at > 0 && (p.is_punct(at - 1, '-') || p.is_punct(at - 1, '=')))
        {
            angle = angle.saturating_sub(1);
        } else if angle == 0 && p.is_any_ident(at) {
            let t = p.text(at);
            if t == "where" {
                break;
            }
            if !matches!(t, "dyn" | "mut" | "for") {
                base = Some(t.strip_prefix("r#").unwrap_or(t).to_string());
            }
        }
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        let lexed = lex(src);
        parse_items(src, &lexed.tokens)
    }

    #[test]
    fn basic_items() {
        let items = parse(
            "pub fn f(x: u32) -> u32 { x }\n\
             struct S { a: u32 }\n\
             pub(crate) enum E { A, B }\n\
             pub type T = Vec<Vec<u64>>;\n\
             pub const C: usize = { let v = 1; v };\n\
             static mut G: u8 = 0;\n",
        );
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            [
                ItemKind::Fn,
                ItemKind::Struct,
                ItemKind::Enum,
                ItemKind::TypeAlias,
                ItemKind::Const,
                ItemKind::Static
            ]
        );
        assert_eq!(items[0].vis, Visibility::Public);
        assert_eq!(items[1].vis, Visibility::Private);
        assert_eq!(items[2].vis, Visibility::Crate);
        assert_eq!(items[3].name.as_deref(), Some("T"));
        assert_eq!(items[5].name.as_deref(), Some("G"));
    }

    #[test]
    fn nested_generics_split_double_close() {
        let items = parse("pub fn g<T: Into<Vec<Vec<u64>>>>(t: T) -> Vec<Vec<u64>> { t.into() }\npub struct After;");
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].name.as_deref(), Some("After"));
    }

    #[test]
    fn impl_blocks_and_members() {
        let items = parse(
            "impl<T: Clone> crate::x::Foo<T> {\n\
                 pub fn method(&self) -> u32 { 1 }\n\
                 fn private(&self) {}\n\
                 pub const K: u32 = 3;\n\
             }\n\
             impl std::fmt::Display for Foo<u8> {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
             }\n",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert!(!items[0].trait_impl);
        assert_eq!(items[0].impl_target.as_deref(), Some("Foo"));
        assert_eq!(items[0].children.len(), 3);
        assert_eq!(items[0].children[0].vis, Visibility::Public);
        assert_eq!(items[0].children[0].name.as_deref(), Some("method"));
        assert_eq!(items[0].children[1].vis, Visibility::Private);
        assert!(items[1].trait_impl);
        assert_eq!(items[1].impl_target.as_deref(), Some("Foo"));
    }

    #[test]
    fn mods_nest_and_cfg_test_is_detected() {
        let items = parse(
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n}\n\
             #[cfg(not(test))]\npub mod real { pub fn f() {} }\n\
             pub mod plain;\n",
        );
        assert!(items[0].cfg_test);
        assert_eq!(items[0].children.len(), 1);
        assert!(items[0].children[0].cfg_test);
        assert!(!items[1].cfg_test);
        assert!(items[1].cfg_gated);
        assert_eq!(items[1].children[0].name.as_deref(), Some("f"));
        assert_eq!(items[2].kind, ItemKind::Mod);
        assert!(items[2].children.is_empty());
    }

    #[test]
    fn shebang_and_inner_attrs_are_skipped() {
        let items =
            parse("#!/usr/bin/env run-cargo-script\n#![allow(dead_code)]\npub fn main_like() {}\n");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name.as_deref(), Some("main_like"));
    }

    #[test]
    fn macro_rules_and_macro_calls() {
        let items = parse(
            "macro_rules! gen { () => {} }\n\
             proptest! { fn looks_like_an_item() {} }\n\
             pub fn after() {}\n",
        );
        assert_eq!(items[0].kind, ItemKind::MacroRules);
        assert_eq!(items[0].name.as_deref(), Some("gen"));
        assert_eq!(items[1].kind, ItemKind::MacroCall);
        assert_eq!(items[2].name.as_deref(), Some("after"));
    }

    #[test]
    fn where_clauses_and_fn_modifiers() {
        let items = parse(
            "pub const fn c() -> u32 { 0 }\n\
             pub unsafe extern \"C\" fn raw() {}\n\
             pub fn w<T>(t: T) -> impl Iterator<Item = T> where T: Clone + Fn() -> u32 { std::iter::once(t) }\n\
             pub struct Tail;\n",
        );
        let names: Vec<&str> = items.iter().filter_map(|i| i.name.as_deref()).collect();
        assert_eq!(names, ["c", "raw", "w", "Tail"]);
        assert!(items.iter().all(|i| i.kind != ItemKind::Unknown));
    }

    #[test]
    fn use_paths_are_normalized() {
        let items = parse("pub use crate::point::{encode_point, decode_point};\n");
        assert_eq!(items[0].kind, ItemKind::Use);
        assert_eq!(
            items[0].use_path.as_deref(),
            Some("crate::point::{encode_point,decode_point}")
        );
    }

    #[test]
    fn signatures_keep_only_the_public_surface() {
        let items = parse(
            "pub fn f<T: Bound>(a: Arg) -> Ret where T: Clone { Body::new() }\n\
             pub struct S { pub a: Map<K, V>, b: Hidden, #[doc(hidden)] pub c: [Elem; 2] }\n\
             pub struct T(pub Shown, Hidden);\n\
             pub trait Tr { fn m(&self) -> Out { Default::default() } }\n\
             pub const C: Ty = Init::make();\n",
        );
        // (item, identifiers its signature must name, identifiers it must not)
        let cases: [(usize, &[&str], &[&str]); 5] = [
            (0, &["Bound", "Arg", "Ret", "Clone"], &["Body"]),
            (1, &["Map", "K", "V", "Elem"], &["Hidden"]),
            (2, &["Shown"], &["Hidden"]),
            (3, &["Out"], &["Default"]),
            (4, &["Ty"], &["Init"]),
        ];
        for (i, named, unnamed) in cases {
            let sig = &items[i].signature;
            assert!(named.iter().all(|n| sig.iter().any(|s| s == n)), "{sig:?}");
            assert!(
                unnamed.iter().all(|n| !sig.iter().any(|s| s == n)),
                "{sig:?}"
            );
        }
    }

    #[test]
    fn directive_line_vs_decl_line() {
        let items = parse("#[derive(Debug)]\n#[repr(C)]\npub struct Annotated(u32);\n");
        assert_eq!(items[0].line, 1);
        assert_eq!(items[0].decl_line, 3);
    }
}
