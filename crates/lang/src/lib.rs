//! # scenic-lang
//!
//! Front end for the Scenic scenario-description language (PLDI 2019):
//! an indentation-aware lexer, the AST of Fig. 5, and a recursive-descent
//! parser covering the full published grammar — specifiers (Tables 3-4),
//! operators (Fig. 7), statements (Table 5), and the Python-inherited
//! control flow (functions, loops, conditionals).
//!
//! # Example
//!
//! ```
//! let program = scenic_lang::parse("ego = Car\nCar offset by 0 @ 10\n")?;
//! assert_eq!(program.statements.len(), 2);
//! # Ok::<(), scenic_lang::ParseError>(())
//! ```

pub mod ast;
pub mod codec;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::{
    BinOp, BoxPoint, ClassDef, CmpOp, Expr, FuncDef, Program, Side, Specifier, SpecifierDef, Stmt,
    StmtChild, StmtKind,
};
pub use codec::{decode_program, encode_program, ByteReader, ByteWriter, CodecError};
pub use error::{ParseError, ParseResult};
pub use lexer::lex;
pub use parser::parse;
pub use printer::{print_expr, print_program, print_specifier};
pub use token::{Pos, Span, Token, TokenKind};
