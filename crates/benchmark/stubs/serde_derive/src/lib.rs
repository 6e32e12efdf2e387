//! Offline stand-in for `serde_derive` (see `../rand/src/lib.rs` for why).
//!
//! Derives the stand-in `serde::Serialize` / `serde::Deserialize` for
//! plain structs and enums without `syn` or `quote`: the item is parsed
//! straight from the token stream and the impl is generated as text.
//! Generic items and `#[serde(...)]` attributes are not supported — this
//! workspace uses neither — and the derive panics with a clear message if
//! it meets one, rather than generating something subtly different.

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

enum Item {
    Struct { name: String, fields: Fields },
    Enum { name: String, variants: Vec<(String, Fields)> },
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Skips `#[...]` attributes (doc comments included) and a visibility.
fn skip_attrs_and_vis(tokens: &mut Tokens) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                match tokens.next() {
                    Some(TokenTree::Group(g)) => {
                        let text = g.stream().to_string();
                        assert!(
                            !text.starts_with("serde"),
                            "the offline serde stand-in does not support #[{text}]"
                        );
                    }
                    other => panic!("expected an attribute body, found {other:?}"),
                }
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            _ => return,
        }
    }
}

/// Consumes one type (or discriminant expression) up to and including the
/// next top-level comma. Commas inside `<...>` belong to the type; commas
/// inside brackets are already hidden in a group token.
fn skip_to_comma(tokens: &mut Tokens) {
    let mut angle = 0i32;
    let mut prev = ' ';
    for token in tokens.by_ref() {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle += 1,
                '>' if prev != '-' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
            prev = p.as_char();
        } else {
            prev = ' ';
        }
    }
}

fn named_fields(body: TokenStream) -> Vec<String> {
    let mut tokens = body.into_iter().peekable();
    let mut names = Vec::new();
    loop {
        skip_attrs_and_vis(&mut tokens);
        match tokens.next() {
            None => return names,
            Some(TokenTree::Ident(name)) => {
                match tokens.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    other => panic!("expected `:` after field `{name}`, found {other:?}"),
                }
                names.push(name.to_string());
                skip_to_comma(&mut tokens);
            }
            Some(other) => panic!("expected a field name, found {other:?}"),
        }
    }
}

fn tuple_arity(body: TokenStream) -> usize {
    let mut tokens = body.into_iter().peekable();
    let mut arity = 0;
    loop {
        skip_attrs_and_vis(&mut tokens);
        if tokens.peek().is_none() {
            return arity;
        }
        arity += 1;
        skip_to_comma(&mut tokens);
    }
}

fn variants(body: TokenStream) -> Vec<(String, Fields)> {
    let mut tokens = body.into_iter().peekable();
    let mut out = Vec::new();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let name = match tokens.next() {
            None => return out,
            Some(TokenTree::Ident(name)) => name.to_string(),
            Some(other) => panic!("expected a variant name, found {other:?}"),
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(tuple_arity(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(named_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        if !matches!(fields, Fields::Unit) {
            tokens.next();
        }
        out.push((name, fields));
        // An explicit discriminant, if any, and the separating comma.
        skip_to_comma(&mut tokens);
    }
}

fn parse(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    skip_attrs_and_vis(&mut tokens);
    let keyword = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected `struct` or `enum`, found {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected the item's name, found {other:?}"),
    };
    let body = tokens.next();
    if let Some(TokenTree::Punct(p)) = &body {
        assert!(
            p.as_char() != '<',
            "the offline serde stand-in cannot derive for generic item `{name}`"
        );
    }
    match (keyword.as_str(), body) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Item::Struct { name, fields: Fields::Named(named_fields(g.stream())) }
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Item::Struct { name, fields: Fields::Tuple(tuple_arity(g.stream())) }
        }
        ("struct", _) => Item::Struct { name, fields: Fields::Unit },
        ("enum", Some(TokenTree::Group(g))) => Item::Enum { name, variants: variants(g.stream()) },
        (other, _) => panic!("cannot derive for `{other} {name}`"),
    }
}

/// `r#type` is the field `type`.
fn key(field: &str) -> &str {
    field.strip_prefix("r#").unwrap_or(field)
}

/// The `Value` expression for a set of fields; `access(i, name)` is the
/// expression that reaches field `i`.
fn fields_to_value(fields: &Fields, access: impl Fn(usize, &str) -> String) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_owned(),
        Fields::Tuple(1) => format!("::serde::Serialize::to_value({})", access(0, "")),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value({})", access(i, "")))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Fields::Named(names) => {
            let items: Vec<String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    format!(
                        "(\"{}\".to_owned(), ::serde::Serialize::to_value({}))",
                        key(n),
                        access(i, n)
                    )
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", items.join(", "))
        }
    }
}

/// The constructor expression rebuilding `path` from the value `src`.
fn fields_from_value(path: &str, fields: &Fields, src: &str) -> String {
    match fields {
        Fields::Unit => path.to_owned(),
        Fields::Tuple(1) => format!("{path}(::serde::Deserialize::from_value({src})?)"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::__private::element({src}, \"{path}\", {i}, {n})?"))
                .collect();
            format!("{path}({})", items.join(", "))
        }
        Fields::Named(names) => {
            let items: Vec<String> = names
                .iter()
                .map(|n| {
                    format!("{n}: ::serde::__private::field({src}, \"{path}\", \"{}\")?", key(n))
                })
                .collect();
            format!("{path} {{ {} }}", items.join(", "))
        }
    }
}

/// Derives the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse(input) {
        Item::Struct { name, fields } => {
            let body = fields_to_value(&fields, |i, n| {
                if n.is_empty() {
                    format!("&self.{i}")
                } else {
                    format!("&self.{n}")
                }
            });
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| {
                    let pattern = match fields {
                        Fields::Unit => String::new(),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            format!("({})", binds.join(", "))
                        }
                        Fields::Named(names) => format!("{{ {} }}", names.join(", ")),
                    };
                    let value = match fields {
                        Fields::Unit => format!("::serde::Value::String(\"{v}\".to_owned())"),
                        _ => {
                            let inner = fields_to_value(fields, |i, n| {
                                if n.is_empty() {
                                    format!("f{i}")
                                } else {
                                    n.to_owned()
                                }
                            });
                            format!("::serde::Value::Object(vec![(\"{v}\".to_owned(), {inner})])")
                        }
                    };
                    format!("{name}::{v}{pattern} => {value},")
                })
                .collect();
            (name, format!("match self {{ {} }}", arms.join("\n")))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse(input) {
        Item::Struct { name, fields } => {
            let body = format!("Ok({})", fields_from_value(&name, &fields, "v"));
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| {
                    let path = format!("{name}::{v}");
                    match fields {
                        Fields::Unit => format!("\"{v}\" => Ok({path}),"),
                        _ => format!(
                            "\"{v}\" => {{\n\
                                 let p = ::serde::__private::payload(payload, \"{name}\", \"{v}\")?;\n\
                                 Ok({})\n\
                             }}",
                            fields_from_value(&path, fields, "p")
                        ),
                    }
                })
                .collect();
            let body = format!(
                "let (variant, payload) = ::serde::__private::variant(v, \"{name}\")?;\n\
                 let _ = &payload;\n\
                 match variant {{\n{}\nother => ::serde::__private::unknown_variant(\"{name}\", other),\n}}",
                arms.join("\n")
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
