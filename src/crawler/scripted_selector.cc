#include "src/crawler/scripted_selector.h"

#include <string>
#include <utility>


namespace deepcrawl {

ScriptedSelector::ScriptedSelector(std::vector<ValueId> script)
    : script_(std::move(script)) {}

ValueId ScriptedSelector::SelectNext() {
  if (cursor_ >= script_.size()) return kInvalidValueId;
  return script_[cursor_++];
}

}  // namespace deepcrawl
