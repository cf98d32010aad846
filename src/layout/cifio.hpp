#pragma once
/// \file cifio.hpp
/// Conversion between the CIF AST and the layout database.

#include <functional>
#include <string>

#include "cif/ast.hpp"
#include "layout/library.hpp"

namespace dic::layout {

/// Maps CIF layer names to technology layer indices; must throw or return
/// a negative value for unknown layers (negative -> std::runtime_error).
using LayerResolver = std::function<int(const std::string&)>;

/// Build a Library from a parsed CIF file. Top-level calls and elements
/// become the root cell (named "TOP" unless the file's top has a name).
/// DS scale factors are applied (non-integral scaled coordinates throw).
/// A hierarchy deeper than kMaxHierarchyDepth throws std::runtime_error;
/// a symbol that repeats a cell name or declares two ports with one name
/// throws std::invalid_argument (Library::addCell). Returns the root cell
/// id.
CellId fromCif(const cif::CifFile& file, Library& lib,
               const LayerResolver& layers);

/// Serialize `root` and everything below it to a CIF AST. `layerName`
/// maps layer indices back to CIF names.
cif::CifFile toCif(const Library& lib, CellId root,
                   const std::function<std::string(int)>& layerName);

}  // namespace dic::layout
