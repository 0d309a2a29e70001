//! Recursive-descent parser for the policy language.
//!
//! Grammar:
//!
//! ```text
//! policy   := rule*
//! rule     := action "if" expr | action "otherwise"
//! action   := "allow" | "deny" | "ask"
//! expr     := and ("or" and)*
//! and      := unary ("and" unary)*
//! unary    := "not" unary | primary
//! primary  := "(" expr ")" | comparison | predicate
//! compare  := field op number
//! field    := "rating" | "vote_count" | "vendor_rating" | "file_size"
//!           | "feed_rating"
//! predicate:= "signed" | "signed_by_trusted" | "known" | "has_rating"
//!           | "vendor_stripped" | "behaviour" "(" string ")"
//!           | "verified" "(" string ")" | "vendor" "(" string ")"
//! ```

use crate::ast::{Action, Cmp, Expr, Field, Policy, Predicate, Rule};
use crate::lexer::{lex, LexError, Spanned, Token};

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// Description.
    pub message: String,
    /// Source line (0 when unknown / end of input).
    pub line: usize,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PolicyError {}

impl From<LexError> for PolicyError {
    fn from(e: LexError) -> Self {
        PolicyError { message: e.message, line: e.line }
    }
}

/// Parse a policy source text.
pub fn parse_policy(input: &str) -> Result<Policy, PolicyError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(p.parse_rule()?);
    }
    Ok(Policy { rules })
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn line(&self) -> usize {
        self.tokens.get(self.pos).or_else(|| self.tokens.last()).map_or(0, |t| t.line)
    }

    fn err(&self, message: impl Into<String>) -> PolicyError {
        PolicyError { message: message.into(), line: self.line() }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    #[cfg_attr(not(test), allow(dead_code, reason = "parser-extension hook, exercised in tests"))]
    fn expect_ident(&mut self, expected: &str) -> Result<(), PolicyError> {
        match self.bump() {
            Some(Token::Ident(id)) if id == expected => Ok(()),
            other => Err(self.err(format!("expected '{expected}', found {other:?}"))),
        }
    }

    fn parse_rule(&mut self) -> Result<Rule, PolicyError> {
        let action = match self.bump() {
            Some(Token::Ident(id)) => match id.as_str() {
                "allow" => Action::Allow,
                "deny" => Action::Deny,
                "ask" => Action::Ask,
                other => return Err(self.err(format!("expected allow/deny/ask, found '{other}'"))),
            },
            other => return Err(self.err(format!("expected a rule action, found {other:?}"))),
        };
        match self.bump() {
            Some(Token::Ident(id)) if id == "if" => {
                let condition = self.parse_expr()?;
                Ok(Rule { action, condition: Some(condition) })
            }
            Some(Token::Ident(id)) if id == "otherwise" => Ok(Rule { action, condition: None }),
            other => Err(self.err(format!("expected 'if' or 'otherwise', found {other:?}"))),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, PolicyError> {
        let mut left = self.parse_and()?;
        while matches!(self.peek(), Some(Token::Ident(id)) if id == "or") {
            self.bump();
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, PolicyError> {
        let mut left = self.parse_unary()?;
        while matches!(self.peek(), Some(Token::Ident(id)) if id == "and") {
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, PolicyError> {
        if matches!(self.peek(), Some(Token::Ident(id)) if id == "not") {
            self.bump();
            return Ok(Expr::Not(Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, PolicyError> {
        match self.bump() {
            Some(Token::LParen) => {
                let inner = self.parse_expr()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    other => Err(self.err(format!("expected ')', found {other:?}"))),
                }
            }
            Some(Token::Ident(id)) => self.parse_ident_primary(&id),
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }

    fn parse_ident_primary(&mut self, id: &str) -> Result<Expr, PolicyError> {
        // Zero-argument predicates.
        let simple = match id {
            "signed" => Some(Predicate::Signed),
            "signed_by_trusted" => Some(Predicate::SignedByTrusted),
            "known" => Some(Predicate::Known),
            "has_rating" => Some(Predicate::HasRating),
            "vendor_stripped" => Some(Predicate::VendorStripped),
            _ => None,
        };
        if let Some(p) = simple {
            return Ok(Expr::Pred(p));
        }

        // String-argument predicates.
        if id == "behaviour" || id == "behavior" || id == "vendor" || id == "verified" {
            self.expect_lparen()?;
            let arg = match self.bump() {
                Some(Token::Str(s)) => s,
                other => {
                    return Err(self.err(format!("expected a string argument, found {other:?}")))
                }
            };
            self.expect_rparen()?;
            let pred = match id {
                "vendor" => Predicate::Vendor(arg),
                "verified" => Predicate::VerifiedBehaviour(arg),
                _ => Predicate::Behaviour(arg),
            };
            return Ok(Expr::Pred(pred));
        }

        // Numeric comparisons.
        let field = match id {
            "rating" => Field::Rating,
            "vote_count" => Field::VoteCount,
            "vendor_rating" => Field::VendorRating,
            "file_size" => Field::FileSize,
            "feed_rating" => Field::FeedRating,
            other => return Err(self.err(format!("unknown predicate or field '{other}'"))),
        };
        let cmp = match self.bump() {
            Some(Token::Lt) => Cmp::Lt,
            Some(Token::Le) => Cmp::Le,
            Some(Token::Gt) => Cmp::Gt,
            Some(Token::Ge) => Cmp::Ge,
            Some(Token::EqEq) => Cmp::Eq,
            Some(Token::Ne) => Cmp::Ne,
            other => {
                return Err(self.err(format!("expected a comparison operator, found {other:?}")))
            }
        };
        let value = match self.bump() {
            Some(Token::Number(n)) => n,
            other => return Err(self.err(format!("expected a number, found {other:?}"))),
        };
        Ok(Expr::Pred(Predicate::Compare(field, cmp, value)))
    }

    fn expect_lparen(&mut self) -> Result<(), PolicyError> {
        match self.bump() {
            Some(Token::LParen) => Ok(()),
            other => Err(self.err(format!("expected '(', found {other:?}"))),
        }
    }

    fn expect_rparen(&mut self) -> Result<(), PolicyError> {
        match self.bump() {
            Some(Token::RParen) => Ok(()),
            other => Err(self.err(format!("expected ')', found {other:?}"))),
        }
    }
}

// Suppress an unused-method lint: expect_ident is kept for parser
// extensions and exercised in tests.
#[cfg(test)]
mod expect_ident_is_used {
    use super::*;

    #[test]
    fn expect_ident_matches_and_rejects() {
        let tokens = lex("if else").unwrap();
        let mut p = Parser { tokens, pos: 0 };
        p.expect_ident("if").unwrap();
        assert!(p.expect_ident("then").is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let policy = parse_policy(
            r#"
            allow if signed_by_trusted
            allow if rating > 7.5 and not behaviour("popup_ads")
            ask otherwise
            "#,
        )
        .unwrap();
        assert_eq!(policy.len(), 3);
        assert_eq!(policy.rules[0].action, Action::Allow);
        assert_eq!(policy.rules[0].condition, Some(Expr::Pred(Predicate::SignedByTrusted)));
        assert_eq!(policy.rules[2].condition, None);
        match &policy.rules[1].condition {
            Some(Expr::And(l, r)) => {
                assert_eq!(**l, Expr::Pred(Predicate::Compare(Field::Rating, Cmp::Gt, 7.5)));
                assert_eq!(
                    **r,
                    Expr::Not(Box::new(Expr::Pred(Predicate::Behaviour("popup_ads".into()))))
                );
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn or_binds_looser_than_and() {
        let policy = parse_policy("allow if signed and known or has_rating").unwrap();
        match &policy.rules[0].condition {
            Some(Expr::Or(l, _)) => {
                assert!(matches!(**l, Expr::And(_, _)));
            }
            other => panic!("or should be top-level: {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let policy = parse_policy("allow if signed and (known or has_rating)").unwrap();
        match &policy.rules[0].condition {
            Some(Expr::And(_, r)) => assert!(matches!(**r, Expr::Or(_, _))),
            other => panic!("and should be top-level: {other:?}"),
        }
    }

    #[test]
    fn not_is_tightest_and_stacks() {
        let policy = parse_policy("deny if not not vendor_stripped").unwrap();
        match &policy.rules[0].condition {
            Some(Expr::Not(inner)) => assert!(matches!(**inner, Expr::Not(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn both_behaviour_spellings_accepted() {
        parse_policy(r#"deny if behaviour("x")"#).unwrap();
        parse_policy(r#"deny if behavior("x")"#).unwrap();
    }

    #[test]
    fn vendor_predicate_parses() {
        let policy = parse_policy(r#"allow if vendor("Microsoft")"#).unwrap();
        assert_eq!(
            policy.rules[0].condition,
            Some(Expr::Pred(Predicate::Vendor("Microsoft".into())))
        );
    }

    #[test]
    fn all_fields_and_operators_parse() {
        parse_policy(
            "deny if rating < 3\n deny if vote_count <= 5\n allow if vendor_rating >= 6\n \
             deny if file_size > 1000000\n deny if rating == 1\n allow if rating != 1",
        )
        .unwrap();
    }

    #[test]
    fn verified_predicate_and_feed_rating_field_parse() {
        let policy = parse_policy(r#"deny if verified("keylogger") or feed_rating <= 3"#).unwrap();
        match &policy.rules[0].condition {
            Some(Expr::Or(l, r)) => {
                assert_eq!(**l, Expr::Pred(Predicate::VerifiedBehaviour("keylogger".into())));
                assert_eq!(**r, Expr::Pred(Predicate::Compare(Field::FeedRating, Cmp::Le, 3.0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_cases_report_lines() {
        let err = parse_policy("allow if\nbogus_field > 3").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_policy("frobnicate if signed").is_err());
        assert!(parse_policy("allow signed").is_err());
        assert!(parse_policy("allow if rating >").is_err());
        assert!(parse_policy("allow if rating 5").is_err());
        assert!(parse_policy("allow if (signed").is_err());
        assert!(parse_policy("allow if behaviour(popup)").is_err());
        assert!(parse_policy("allow if").is_err());
    }

    #[test]
    fn empty_policy_is_valid() {
        assert!(parse_policy("").unwrap().is_empty());
        assert!(parse_policy("# just comments\n").unwrap().is_empty());
    }
}
