//! A parser for the SELECT-PROJECT-JOIN fragment the engine emits.
//!
//! Round-trips [`crate::sql::render::render_sql`]: any statement the
//! renderer prints parses back to an equivalent AST. Useful for writing gold
//! queries as text and for driving the engine from a REPL.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! select   := SELECT [DISTINCT] ( '*' | column (',' column)* )
//!             FROM table (',' table)*
//!             [WHERE condition (AND condition)*]
//!             [LIMIT n]
//! column   := ident '.' ident
//! condition:= column '=' column            -- join
//!           | column LIKE string           -- containment ('%kw%')
//!           | column op literal            -- comparison
//!           | column IS [NOT] NULL
//! ```

use crate::error::StoreError;
use crate::schema::Catalog;
use crate::sql::ast::{CompareOp, JoinCondition, Predicate, Projection, SelectStatement};
use crate::types::DataType;
use crate::value::Value;

/// Parse a SQL string against a catalog.
pub fn parse_sql(catalog: &Catalog, input: &str) -> Result<SelectStatement, StoreError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        catalog,
        tokens,
        pos: 0,
    };
    let stmt = p.parse_select()?;
    p.expect_end()?;
    Ok(stmt)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Number(String),
    Star,
    Comma,
    Dot,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

fn lex(input: &str) -> Result<Vec<Token>, StoreError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    let err = |m: String| StoreError::InvalidQuery(m);
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'>') {
                    out.push(Token::Ne);
                    i += 2;
                } else if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                // String literal with '' escaping.
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        Some('\'') if chars.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(ch) => {
                            s.push(*ch);
                            i += 1;
                        }
                        None => return Err(err("unterminated string literal".into())),
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    i += 1;
                }
                out.push(Token::Number(chars[start..i].iter().collect()));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(chars[start..i].iter().collect()));
                let _ = start;
            }
            other => return Err(err(format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

struct Parser<'a> {
    catalog: &'a Catalog,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, m: impl Into<String>) -> StoreError {
        StoreError::InvalidQuery(format!("{} (at token {})", m.into(), self.pos))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), StoreError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn ident(&mut self) -> Result<String, StoreError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), StoreError> {
        match self.bump() {
            Some(got) if got == t => Ok(()),
            _ => Err(self.err(format!("expected {t:?}"))),
        }
    }

    fn expect_end(&self) -> Result<(), StoreError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err("trailing tokens"))
        }
    }

    fn qualified_attr(&mut self) -> Result<crate::schema::AttrId, StoreError> {
        let table = self.ident()?;
        self.expect(Token::Dot)?;
        let attr = self.ident()?;
        self.catalog.attr_id(&table, &attr)
    }

    fn parse_select(&mut self) -> Result<SelectStatement, StoreError> {
        self.expect_keyword("select")?;
        let distinct = self.keyword("distinct");
        let projection = if self.peek() == Some(&Token::Star) {
            self.bump();
            Projection::Star
        } else {
            let mut attrs = vec![self.qualified_attr()?];
            while self.peek() == Some(&Token::Comma) {
                self.bump();
                attrs.push(self.qualified_attr()?);
            }
            Projection::Attrs(attrs)
        };
        self.expect_keyword("from")?;
        let mut from = vec![self.catalog.table_id(&self.ident()?)?];
        while self.peek() == Some(&Token::Comma) {
            self.bump();
            from.push(self.catalog.table_id(&self.ident()?)?);
        }
        let mut joins = Vec::new();
        let mut predicates = Vec::new();
        if self.keyword("where") {
            loop {
                self.parse_condition(&mut joins, &mut predicates)?;
                if !self.keyword("and") {
                    break;
                }
            }
        }
        let limit = if self.keyword("limit") {
            match self.bump() {
                Some(Token::Number(n)) => Some(
                    n.parse::<usize>()
                        .map_err(|_| self.err("bad LIMIT value"))?,
                ),
                _ => return Err(self.err("expected number after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStatement {
            projection,
            from,
            joins,
            predicates,
            distinct,
            limit,
        })
    }

    fn parse_condition(
        &mut self,
        joins: &mut Vec<JoinCondition>,
        predicates: &mut Vec<Predicate>,
    ) -> Result<(), StoreError> {
        let attr = self.qualified_attr()?;
        if self.keyword("like") {
            let pat = match self.bump() {
                Some(Token::Str(s)) => s,
                _ => return Err(self.err("expected string after LIKE")),
            };
            let keyword = pat.trim_matches('%').to_string();
            predicates.push(Predicate::Contains { attr, keyword });
            return Ok(());
        }
        if self.keyword("is") {
            let negated = self.keyword("not");
            self.expect_keyword("null")?;
            predicates.push(Predicate::IsNull { attr, negated });
            return Ok(());
        }
        let op = match self.bump() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Ne) => CompareOp::Ne,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            _ => return Err(self.err("expected comparison operator")),
        };
        // Right side: another qualified attribute (join) or a literal.
        match self.peek() {
            Some(Token::Ident(s))
                if !s.eq_ignore_ascii_case("true")
                    && !s.eq_ignore_ascii_case("false")
                    && !s.eq_ignore_ascii_case("date") =>
            {
                if op != CompareOp::Eq {
                    return Err(self.err("joins must use ="));
                }
                let right = self.qualified_attr()?;
                joins.push(JoinCondition { left: attr, right });
            }
            _ => {
                let value = self.parse_literal()?;
                predicates.push(Predicate::Compare { attr, op, value });
            }
        }
        Ok(())
    }

    fn parse_literal(&mut self) -> Result<Value, StoreError> {
        match self.bump() {
            Some(Token::Number(n)) => {
                if n.contains('.') {
                    // A digit run too long for f64 parses as infinity, which
                    // has no SQL literal to render back to.
                    n.parse::<f64>()
                        .ok()
                        .filter(|f| f.is_finite())
                        .map(Value::float)
                        .ok_or_else(|| self.err("bad float literal"))
                } else {
                    n.parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| self.err("bad integer literal"))
                }
            }
            Some(Token::Str(s)) => Ok(Value::Text(s)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("date") => match self.bump() {
                Some(Token::Str(d)) => {
                    Value::parse(&d, DataType::Date).ok_or_else(|| self.err("bad date literal"))
                }
                _ => Err(self.err("expected string after DATE")),
            },
            _ => Err(self.err("expected literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::render::render_sql;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_table("person")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        c.define_table("movie")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("title", DataType::Text)
            .unwrap()
            .col_opts("director_id", DataType::Int, true, false)
            .unwrap()
            .col_opts("year", DataType::Int, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("movie", "director_id", "person").unwrap();
        c
    }

    #[test]
    fn parses_full_statement() {
        let c = catalog();
        let stmt = parse_sql(
            &c,
            "SELECT DISTINCT movie.title, person.name FROM movie, person \
             WHERE movie.director_id = person.id AND movie.title LIKE '%wind%' \
             AND movie.year >= 1930 LIMIT 10",
        )
        .unwrap();
        assert!(stmt.distinct);
        assert_eq!(stmt.from.len(), 2);
        assert_eq!(stmt.joins.len(), 1);
        assert_eq!(stmt.predicates.len(), 2);
        assert_eq!(stmt.limit, Some(10));
        match &stmt.predicates[0] {
            Predicate::Contains { keyword, .. } => assert_eq!(keyword, "wind"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_trips_renderer_output() {
        let c = catalog();
        let original = parse_sql(
            &c,
            "SELECT movie.title FROM movie WHERE movie.year = 1939 AND \
             movie.title LIKE '%oz%' AND movie.director_id IS NOT NULL",
        )
        .unwrap();
        let text = render_sql(&c, &original);
        let reparsed = parse_sql(&c, &text).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn case_insensitive_keywords() {
        let c = catalog();
        let stmt = parse_sql(&c, "select * from movie where movie.year < 2000").unwrap();
        assert_eq!(stmt.projection, Projection::Star);
        assert_eq!(stmt.predicates.len(), 1);
    }

    #[test]
    fn string_escapes() {
        let c = catalog();
        let stmt = parse_sql(
            &c,
            "SELECT * FROM person WHERE person.name LIKE '%o''hara%'",
        )
        .unwrap();
        match &stmt.predicates[0] {
            Predicate::Contains { keyword, .. } => assert_eq!(keyword, "o'hara"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn boolean_null_and_negative_literals() {
        let c = catalog();
        let stmt = parse_sql(&c, "SELECT * FROM movie WHERE movie.year <> -5").unwrap();
        match &stmt.predicates[0] {
            Predicate::Compare { op, value, .. } => {
                assert_eq!(*op, CompareOp::Ne);
                assert_eq!(*value, Value::Int(-5));
            }
            other => panic!("unexpected {other:?}"),
        }
        let stmt = parse_sql(&c, "SELECT * FROM movie WHERE movie.year IS NULL").unwrap();
        assert!(matches!(
            stmt.predicates[0],
            Predicate::IsNull { negated: false, .. }
        ));
    }

    #[test]
    fn rejects_malformed_sql() {
        let c = catalog();
        for bad in [
            "",
            "SELECT",
            "SELECT * FROM ghost",
            "SELECT * FROM movie WHERE",
            "SELECT * FROM movie WHERE movie.ghost = 1",
            "SELECT * FROM movie WHERE movie.year",
            "SELECT * FROM movie LIMIT x",
            "SELECT * FROM movie trailing",
            "SELECT * FROM movie WHERE movie.title LIKE 'unterminated",
            "SELECT * FROM movie WHERE movie.year > person.id", // join must use =
            // 400 digits: parses as an infinite f64.
            &format!(
                "SELECT * FROM movie WHERE movie.year = {}.0",
                "9".repeat(400)
            ),
        ] {
            assert!(parse_sql(&c, bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parsed_statements_execute() {
        let c = catalog();
        let mut db = crate::Database::new(c).unwrap();
        db.insert(
            "person",
            crate::Row::new(vec![1.into(), "Victor Fleming".into()]),
        )
        .unwrap();
        db.insert(
            "movie",
            crate::Row::new(vec![
                10.into(),
                "Gone with the Wind".into(),
                1.into(),
                1939.into(),
            ]),
        )
        .unwrap();
        db.finalize();
        let stmt = parse_sql(
            db.catalog(),
            "SELECT movie.title, person.name FROM movie, person \
             WHERE movie.director_id = person.id AND movie.year = 1939",
        )
        .unwrap();
        let rs = crate::sql::execute(&db, &stmt).unwrap();
        assert_eq!(rs.len(), 1);
    }
}
